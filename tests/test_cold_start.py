"""Cold start: each CLI imports what its default run calls, and no more.

Every check runs in a fresh interpreter and reads ``sys.modules``, so it
measures the import graph, not a clock.  The guard tests pin modules a
CLI must not load; the no-shift tests pin that a default run loads no
``repro`` module its CLI import did not, so a module made lazy cannot
move its import cost into the timed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the sorted ``repro`` modules after importing ``cli`` and, when
#: argv is given, after one ``main(argv)`` call.
_PROBE = """
import contextlib, importlib, io, json, sys
cli, argv = sys.argv[1], json.loads(sys.argv[2])
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
module = importlib.import_module(cli)
report = {"import": loaded()}
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        report["code"] = module.main(argv)
    report["run"] = loaded()
print(json.dumps(report))
"""


def _probe(cli: str, argv: Optional[List[str]] = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, cli, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _hits(modules: List[str], forbidden: List[str]) -> List[str]:
    return [
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    ]


@pytest.mark.parametrize(
    "cli, forbidden",
    [
        (
            "repro.cli",
            [
                "repro.fuzz",
                "repro.oracle",
                "repro.bridge",
                "repro.telemetry.export",
                "repro.analysis.triage",
                "repro.analysis.reduce",
            ],
        ),
        ("repro.oracle.cli", ["repro.fuzz", "repro.harness.campaign", "repro.bridge"]),
        (
            "repro.fuzz.cli",
            [
                "repro.harness.campaign",
                "repro.bridge",
                "repro.telemetry.export",
                "repro.oracle.relations",
            ],
        ),
    ],
)
def test_cli_import_loads_no_flag_only_module(cli, forbidden):
    assert _hits(_probe(cli)["import"], forbidden) == []


def test_top_level_names_resolve_lazily():
    assert _probe("repro")["import"] == ["repro"]
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_name


@pytest.mark.parametrize(
    "cli, argv",
    [
        # The report is rendered, adjacency matrices included.
        (
            "repro.cli",
            ["--seed", "3", "--fp64-programs", "4", "--fp32-programs", "4", "--inputs", "2"],
        ),
        # Minimization is on by default; this session minimizes findings.
        (
            "repro.fuzz.cli",
            [
                "--seed", "2024", "--fptype", "fp32", "--seed-programs", "3",
                "--inputs", "2", "--mutants", "6", "--report",
            ],
        ),
        (
            "repro.oracle.cli",
            ["--seed", "2024", "--fptype", "fp32", "--programs", "2", "--inputs", "2"],
        ),
    ],
)
def test_default_run_imports_nothing_new(cli, argv, tmp_path):
    out_flag = {"repro.cli": "--json"}.get(cli, "--ledger")
    report = _probe(cli, argv + [out_flag, str(tmp_path / "out")])
    assert report["code"] == 0
    if cli == "repro.fuzz.cli":
        ledger = (tmp_path / "out").read_text(encoding="utf-8")
        assert '"reduced_' in ledger, "the session minimized nothing"
    assert sorted(set(report["run"]) - set(report["import"])) == []
