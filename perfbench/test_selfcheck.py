"""Self-checks of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/test_selfcheck.py
Each workload test runs one untraced and two traced samples (about two
minutes in all on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checks, check_sample  # noqa: E402
from run import EXACT_COUNTERS, MIN_COVERAGE, ROOT, WORKLOADS, run_child  # noqa: E402


@pytest.fixture
def outdir():
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sample(workload, outdir, *flags):
    record = run_child(workload, 7, outdir, time.monotonic(), *flags)
    csv = outdir / f"{workload}.csv"
    checks = Checks()
    matches = check_sample(workload, checks, csv, record.get("outputs"))
    assert checks.failed == 0, checks.messages
    assert matches
    return record, csv.read_bytes()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_outputs_counters_and_coverage(workload, outdir):
    _, untraced_csv = _sample(workload, outdir)
    first, first_csv = _sample(workload, outdir, "--trace")
    second, second_csv = _sample(workload, outdir, "--trace")
    assert first_csv == untraced_csv == second_csv
    for key in EXACT_COUNTERS:
        assert first["layers"][key] == second["layers"][key], key
    for record in (first, second):
        assert record["layers"]["trace.coverage"] >= MIN_COVERAGE


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(cmd + ["--workload", "exact_means", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
