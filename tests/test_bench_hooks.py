"""The package names the benchmark looks up still resolve.

``bench/run.py`` wraps package functions by name for its traced runs,
and its sweep's final check calls the brute-force estimator on an
evaluation point from ``KernelSpec.eval_point``. Importing the script
pins the BLAS thread count through the environment, so it runs in a
subprocess here and leaves this test process as it was.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from spans import Tracer

pkg = run.import_package()
from condaalen import cli, covariance, estimators, stepfun

modules = (cli, covariance, estimators, stepfun.StepCurve)
before = [dict(vars(m)) for m in modules]
tracer = Tracer()
run.install_tracing(tracer, {"load": [], "write": []})
tracer.restore()
assert [dict(vars(m)) for m in modules] == before, "restore left a wrapper in place"

# the sweep's own final check, on a small sample of its scenario
sweep = run.Sweep(pkg, 1, None)
sweep.n = 300
sweep.setup()
assert sweep.final_check(), "fit differs from brute_force_estimator"
print("ok")
"""


def test_bench_lookups_resolve():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
