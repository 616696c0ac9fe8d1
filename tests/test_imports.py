"""The import graph: only the Markov oracle and the check suite load scipy,
and nothing that simulates, fits or computes a covariance loads ``numpy.ma``."""

import subprocess
import sys
from pathlib import Path

import condaalen

# Runs in a fresh interpreter, so that no other test's imports count. It
# must not import condaalen.checks, which imports scipy itself.
_CHILD = r"""
import json, math, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
work = Path(sys.argv[2])

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

import condaalen
from condaalen.cli import main
from condaalen.simulate import default_scenario, default_scenario_json, markov_occupation_oracle

scenario = work / "scenario.json"
scenario.write_text(json.dumps(default_scenario_json()))
sample = str(work / "sample.csv")
assert main(["simulate", "--scenario", str(scenario), "--out", sample, "--n", "60"]) == 0
assert main(["fit", "--input", sample, "--x", "0.5", "--json", "--out", str(work / "fit")]) == 0
cov = ["covariance", "--input", sample, "--x", "0.5", "--grid", "5", "--out", str(work / "cov")]
assert main(cov) == 0
assert not scipy_modules(), f"{len(scipy_modules())} scipy modules loaded"
import numpy
if int(numpy.__version__.split(".")[0]) >= 2:  # numpy 1 imports numpy.ma with itself
    assert "numpy.ma" not in sys.modules, "numpy.ma loaded"

intensity = default_scenario()["intensity"]
try:
    markov_occupation_oracle(intensity, (0.5,), [0.0, math.nan])
except ValueError:
    pass
else:
    raise AssertionError("a nan grid point was accepted")
assert not scipy_modules(), f"{len(scipy_modules())} scipy modules loaded"

# at x = 0.5 state 1 is left at rates 0.8 * 1.5 and 0.4 * 1.5
grid = [0.0, 0.25, 0.5, 1.0, 2.0]
values = markov_occupation_oracle(intensity, (0.5,), grid)
for t, p in zip(grid, values[:, 0]):
    assert abs(p - math.exp(-1.8 * t)) <= 1e-12, (t, p)
assert "scipy" in sys.modules
assert "condaalen.checks" not in sys.modules
print("ok")
"""


def test_scipy_loads_only_with_the_markov_oracle(tmp_path):
    package = str(Path(condaalen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, package, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
