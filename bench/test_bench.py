"""Self-test of the benchmark: exact counts, and refusal without sources.

    python3 -m pytest -q bench/test_bench.py     # about three minutes

Not part of the package's test suite; it runs the benchmark itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def traced_counts(workload: str) -> dict:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "fraction")
    }


@pytest.mark.parametrize("workload", ["sweep", "pipeline", "covariance"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert first == traced_counts(workload)
    assert first["estimators.event_grid.calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
