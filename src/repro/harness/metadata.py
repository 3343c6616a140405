"""Campaign metadata — the JSON artifact of Fig. 3.

The paper's between-platform workflow: run all tests on System 1, save a
JSON metadata file (tests, inputs, compilers, flags, results), transfer it
to System 2, locate/rebuild the same tests, run them, and save an updated
JSON with both systems' results.  :class:`CampaignMetadata` is that file.

Programs are not serialized as IR: they are regenerated from their stored
seed (generation is deterministic), exactly as the real workflow re-uses
the test source files it shipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import MetadataError
from repro.fp.types import FPType
from repro.harness.outcomes import RunRecord
from repro.utils.jsonio import dump_json, load_json
from repro.varity.config import GeneratorConfig
from repro.varity.corpus import Corpus, regenerate_test
from repro.varity.testcase import TestCase

__all__ = ["SystemResults", "CampaignMetadata"]

_FORMAT_VERSION = 1


class SystemResults:
    """Results of one system: ``(opt, test_id, input_index) → printed``.

    The printed ``%.17g`` string is the ground truth the harness compares
    (§III-B); parsing it back gives the exact double.
    """

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, str, int], str] = {}

    def record(self, record: RunRecord) -> None:
        key = (record.opt_label, record.test_id, record.input_index)
        self._results[key] = record.printed

    def record_printed(self, opt: str, test_id: str, input_index: int, printed: str) -> None:
        self._results[(opt, test_id, input_index)] = printed

    def get(self, opt: str, test_id: str, input_index: int) -> Optional[str]:
        return self._results.get((opt, test_id, input_index))

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self):
        return iter(sorted(self._results.items()))

    def to_json_dict(self) -> Dict[str, str]:
        # Flat "opt|test|idx" keys keep the JSON grep-able.
        return {f"{o}|{t}|{i}": p for (o, t, i), p in sorted(self._results.items())}

    @classmethod
    def from_json_dict(cls, data: Dict[str, str]) -> "SystemResults":
        store = cls()
        for key, printed in data.items():
            try:
                opt, test_id, idx = key.rsplit("|", 2)
                store.record_printed(opt, test_id, int(idx), printed)
            except ValueError as exc:
                raise MetadataError(f"bad result key {key!r}") from exc
        return store


@dataclass
class CampaignMetadata:
    """The transferable campaign description + accumulated results."""

    fptype: FPType
    root_seed: int
    inputs_per_program: int
    opt_labels: Tuple[str, ...]
    tests: List[Dict[str, object]] = field(default_factory=list)
    systems: Dict[str, Dict[str, object]] = field(default_factory=dict)
    results: Dict[str, SystemResults] = field(default_factory=dict)  # system name → results

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_corpus(
        cls, corpus: Corpus, opt_labels: Sequence[str]
    ) -> "CampaignMetadata":
        meta = cls(
            fptype=corpus.fptype,
            root_seed=corpus.root_seed,
            inputs_per_program=corpus.config.inputs_per_program,
            opt_labels=tuple(opt_labels),
        )
        meta.tests = [t.to_meta_dict() for t in corpus]
        return meta

    def register_system(
        self, name: str, *, compiler: str, device: str, flags: Sequence[str] = ()
    ) -> None:
        self.systems[name] = {
            "compiler": compiler,
            "device": device,
            "flags": list(flags),
        }
        self.results.setdefault(name, SystemResults())

    def store_for(self, system: str) -> SystemResults:
        try:
            return self.results[system]
        except KeyError:
            raise MetadataError(
                f"system {system!r} not registered (have {sorted(self.results)})"
            ) from None

    # -- test reconstruction ----------------------------------------------------
    def rebuild_tests(self) -> List[TestCase]:
        """Regenerate every test on the receiving system (Fig. 3, right)."""
        cfg = GeneratorConfig(fptype=self.fptype)
        cfg.inputs_per_program = self.inputs_per_program
        out: List[TestCase] = []
        for entry in self.tests:
            out.append(
                regenerate_test(
                    cfg,
                    seed=int(entry["seed"]),  # type: ignore[arg-type]
                    test_id=str(entry["test_id"]),
                    input_texts=entry["inputs"],  # type: ignore[arg-type]
                    via_hipify=bool(entry.get("via_hipify", False)),
                )
            )
        return out

    # -- persistence --------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        dump_json(
            {
                "format_version": _FORMAT_VERSION,
                "fptype": self.fptype.value,
                "root_seed": self.root_seed,
                "inputs_per_program": self.inputs_per_program,
                "opt_labels": list(self.opt_labels),
                "tests": self.tests,
                "systems": self.systems,
                "results": {name: store.to_json_dict() for name, store in self.results.items()},
            },
            path,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignMetadata":
        data = load_json(path)
        if data.get("format_version") != _FORMAT_VERSION:
            raise MetadataError(
                f"unsupported metadata format {data.get('format_version')!r}"
            )
        meta = cls(
            fptype=FPType.from_string(data["fptype"]),
            root_seed=int(data["root_seed"]),
            inputs_per_program=int(data["inputs_per_program"]),
            opt_labels=tuple(data["opt_labels"]),
            tests=list(data["tests"]),
            systems=dict(data.get("systems", {})),
        )
        meta.results = {
            name: SystemResults.from_json_dict(stored)
            for name, stored in data.get("results", {}).items()
        }
        for name in meta.systems:
            meta.results.setdefault(name, SystemResults())
        return meta
