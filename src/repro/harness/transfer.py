"""Between-platform comparison workflow (paper Fig. 3).

GPUs from different vendors live in different clusters, so the paper runs
each campaign in two sessions: System 1 (NVIDIA) executes all tests and
saves JSON metadata; System 2 (AMD) loads the metadata, rebuilds the same
tests and inputs, executes them, and saves the merged results, which the
analysis step consumes.  These functions reproduce that exact flow —
including the file on disk — against the simulated devices.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.compilers.compiler import Compiler
from repro.compilers.hipcc import HipccCompiler
from repro.compilers.nvcc import NvccCompiler
from repro.compilers.options import OptSetting, PAPER_OPT_SETTINGS
from repro.devices.amd import amd_mi250x
from repro.devices.device import Device
from repro.devices.nvidia import nvidia_v100
from repro.errors import MetadataError
from repro.fp.classify import classify_value
from repro.harness.differential import Discrepancy, classify_pair
from repro.harness.metadata import CampaignMetadata
from repro.varity.corpus import Corpus
from repro.varity.testcase import TestCase

__all__ = ["run_system1", "run_system2", "collect_discrepancies", "between_platform_campaign"]

SYSTEM1 = "system1-nvidia"
SYSTEM2 = "system2-amd"


def _execute_into(
    meta: CampaignMetadata,
    system: str,
    tests: Sequence[TestCase],
    device: Device,
    compiler: Compiler,
    opts: Sequence[OptSetting],
) -> None:
    store = meta.store_for(system)
    for opt in opts:
        for test in tests:
            compiled = compiler.compile(test.program, opt)
            rows = [vec.values for vec in test.inputs]
            results = device.execute_batch(compiled, rows, events=False)
            for idx, result in enumerate(results):
                if result is None:
                    continue  # timed-out job: no result row
                store.record_printed(opt.label, test.test_id, idx, result.printed)


def run_system1(
    corpus: Corpus,
    metadata_path: Union[str, Path],
    opts: Sequence[OptSetting] = PAPER_OPT_SETTINGS,
) -> CampaignMetadata:
    """Session on the NVIDIA cluster: run everything, save metadata JSON."""
    meta = CampaignMetadata.from_corpus(corpus, [o.label for o in opts])
    device = nvidia_v100()
    compiler = NvccCompiler()
    meta.register_system(
        SYSTEM1,
        compiler=compiler.name,
        device=device.spec.describe(),
        flags=[" ".join(o.flags_for(compiler.name)) for o in opts],
    )
    _execute_into(meta, SYSTEM1, list(corpus), device, compiler, opts)
    meta.save(metadata_path)
    return meta


def run_system2(
    metadata_path_in: Union[str, Path],
    metadata_path_out: Union[str, Path],
    opts: Sequence[OptSetting] = PAPER_OPT_SETTINGS,
) -> CampaignMetadata:
    """Session on the AMD cluster: load metadata, rerun the same tests,
    save the merged file."""
    meta = CampaignMetadata.load(metadata_path_in)
    labels = tuple(o.label for o in opts)
    if labels != meta.opt_labels:
        raise MetadataError(
            f"optimization grids differ: metadata {meta.opt_labels}, requested {labels}"
        )
    tests = meta.rebuild_tests()
    device = amd_mi250x()
    compiler = HipccCompiler()
    meta.register_system(
        SYSTEM2,
        compiler=compiler.name,
        device=device.spec.describe(),
        flags=[" ".join(o.flags_for(compiler.name)) for o in opts],
    )
    _execute_into(meta, SYSTEM2, tests, device, compiler, opts)
    meta.save(metadata_path_out)
    return meta


def collect_discrepancies(meta: CampaignMetadata) -> List[Discrepancy]:
    """Analysis step over a merged metadata file."""
    if SYSTEM1 not in meta.results or SYSTEM2 not in meta.results:
        raise MetadataError("metadata does not contain both systems' results")
    s1 = meta.store_for(SYSTEM1)
    s2 = meta.store_for(SYSTEM2)
    out: List[Discrepancy] = []
    for (opt, test_id, idx), printed1 in s1:
        printed2 = s2.get(opt, test_id, idx)
        if printed2 is None:
            continue
        v1, v2 = float(printed1), float(printed2)
        dclass = classify_pair(v1, v2)
        if dclass is None:
            continue
        out.append(
            Discrepancy(
                test_id=test_id,
                input_index=idx,
                opt_label=opt,
                dclass=dclass,
                lhs_printed=printed1,
                rhs_printed=printed2,
                lhs_outcome=classify_value(v1),
                rhs_outcome=classify_value(v2),
            )
        )
    return out


def between_platform_campaign(
    corpus: Corpus,
    workdir: Union[str, Path],
    opts: Sequence[OptSetting] = PAPER_OPT_SETTINGS,
) -> Tuple[CampaignMetadata, List[Discrepancy]]:
    """The full Fig. 3 round trip through files on disk."""
    workdir = Path(workdir)
    path1 = workdir / "metadata.system1.json"
    path2 = workdir / "metadata.merged.json"
    run_system1(corpus, path1, opts)
    meta = run_system2(path1, path2, opts)
    return meta, collect_discrepancies(meta)
