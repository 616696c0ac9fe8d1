"""CLI output bytes against committed SHA-256 digests.

Each case runs ``cli.main`` with relative paths inside one scratch
directory and hashes every file the case writes and its stderr.
``tests/golden/digests.json`` holds the digests and the numpy version
they were made with; ``python tests/golden/regenerate.py`` rewrites it.
A change that has to regenerate it changes CLI output bytes, and says
so and why. Covariance surfaces are left out: their matrix products run
through BLAS kernels that need not give the same bits on every CPU, and
the differential tests cover them.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from condaalen import cli
from condaalen.simulate import default_scenario_json

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"


def _thinning_scenario() -> dict:
    """The default scenario with a time-varying 1->2 rate, drawn by thinning."""
    raw = default_scenario_json()
    raw["rates"]["1->2"] = "0.8*(1+x1)*(1+0.5*t)"
    return raw


def _semi_markov_scenario() -> dict:
    """The default scenario with a 1->2 rate that reads the duration in state 1."""
    raw = default_scenario_json(n=400, seed=6)
    raw["kind"] = "semi_markov"
    raw["rates"]["1->2"] = "0.8*(1+x1)*(1+0.5*duration)"
    return raw


# name, command line, output path (a file or a directory), scenario to write first
CASES = [
    (
        "simulate",
        ["simulate", "--scenario", "default.json", "--out", "sample.csv"],
        "sample.csv",
        ("default.json", default_scenario_json(n=3000, seed=3)),
    ),
    (
        "fit-json",
        ["fit", "--input", "sample.csv", "--out", "fit", "--json"]
        + ["--x", "0.25", "--x", "0.5", "--x", "0.75"],
        "fit",
        None,
    ),
    (
        "simulate-thinning",
        ["simulate", "--scenario", "thinning.json", "--out", "thinning.csv"]
        + ["--seed", "4294967296", "--n", "400"],
        "thinning.csv",
        ("thinning.json", _thinning_scenario()),
    ),
    (
        "fit-floor",
        ["fit", "--input", "sample.csv", "--out", "floor", "--x", "0.5"]
        + ["--epsilon", "0.05", "--bandwidth", "0.2"],
        "floor",
        None,
    ),
    (
        "simulate-semi-markov",
        ["simulate", "--scenario", "semi.json", "--out", "semi.csv"],
        "semi.csv",
        ("semi.json", _semi_markov_scenario()),
    ),
    (
        "fit-semi-markov",
        ["fit", "--input", "semi.csv", "--out", "semi", "--x", "0.5", "--bandwidth", "0.3"],
        "semi",
        None,
    ),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cases(root: Path) -> dict:
    """Run every case in order inside ``root``; later cases read earlier outputs."""
    digests = {}
    home = os.getcwd()
    os.chdir(root)
    try:
        for name, argv, output, scenario in CASES:
            if scenario is not None:
                Path(scenario[0]).write_text(json.dumps(scenario[1]))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            out = Path(output)
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            digests[name] = {
                "exit": code,
                "stderr": _sha(err.getvalue().encode()),
                "files": {f.as_posix(): _sha(f.read_bytes()) for f in files},
            }
    finally:
        os.chdir(home)
    return digests


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [case[0] for case in CASES])
def test_cli_output_matches_digests(observed, name):
    want = json.loads(DIGESTS.read_text())["cases"][name]
    got = observed[name]
    assert got["exit"] == want["exit"] == 0
    assert sorted(got["files"]) == sorted(want["files"])
    for path, digest in want["files"].items():
        assert got["files"][path] == digest, path
    assert got["stderr"] == want["stderr"]
