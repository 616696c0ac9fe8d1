import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condaalen
from condaalen import checks
from condaalen.checks import _floor_sample
from condaalen.cli import _write_surface, main
from condaalen.covariance import CovarianceSurface
from condaalen.data import load_sample, write_sample
from condaalen.simulate import default_scenario, default_scenario_json, simulate_sample


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenario.json"
    scen.write_text(json.dumps(default_scenario_json(n=120, seed=31)))
    sample = root / "sample.csv"
    assert main(["simulate", "--scenario", str(scen), "--out", str(sample)]) == 0
    return root


def test_simulate_writes_loadable_sample(workspace):
    s = load_sample(workspace / "sample.csv")
    assert len(s) == 120
    assert s.state_space.states == (1, 2, 3)


def test_simulate_is_byte_deterministic(workspace, tmp_path):
    again = tmp_path / "again.csv"
    code = main(
        ["simulate", "--scenario", str(workspace / "scenario.json"), "--out", str(again)]
    )
    assert code == 0
    assert again.read_bytes() == (workspace / "sample.csv").read_bytes()


def test_simulate_overrides_n_and_seed(workspace, tmp_path):
    out = tmp_path / "small.csv"
    code = main(
        [
            "simulate",
            "--scenario",
            str(workspace / "scenario.json"),
            "--n",
            "10",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(load_sample(out)) == 10


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_empty_scenario(tmp_path, capsys):
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps(default_scenario_json(n=0, seed=1)))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert "n >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e308*1e308", "0*t + 1e308*1e308", "1/(x1-x1)"])
def test_simulate_rejects_bad_rate_values(tmp_path, capsys, rate):
    raw = default_scenario_json(n=5, seed=1)
    raw["rates"]["1->2"] = rate
    scenario = tmp_path / "bad_rate.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "1->2" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [("n", None), ("n", 2.5), ("n", "10"), ("seed", 1.5), ("seed", True), ("states", [1, 2.0, 3])],
)
def test_simulate_rejects_non_integer_fields(tmp_path, capsys, field, value):
    raw = default_scenario_json(n=5, seed=1)
    raw[field] = value
    scenario = tmp_path / "bad_field.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: scenario field '{field}' must be")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("window", [0, -0.5])
def test_simulate_rejects_bad_thinning_window(tmp_path, capsys, deadline, window):
    raw = default_scenario_json(n=5, seed=1)
    raw["rates"]["1->2"] = "0.8*(1+x1) + 0*t"
    raw["thinning_window"] = window
    scenario = tmp_path / "bad_window.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with deadline(10):
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert "'thinning_window' must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def _explosive(raw):
    raw.update(states=[1, 2], absorbing=[], rates={"1->2": "1e6", "2->1": "1e6"})
    raw["censoring"] = {"law": "fixed", "value": 1.0}


def _never_absorbed(raw):
    # no way out of state 2, and a censoring time whose mean 1 / 1e-320 overflows
    raw.update(states=[1, 2], absorbing=[], rates={"1->2": "0.8"})
    raw["censoring"]["rate"] = "1e-320"


def _spiking(raw):
    # peaks at 11 near t = 0.1, between the probes the thinning majorant is built on
    raw["rates"]["1->2"] = "1 + 1000*max(0, 0.01 - abs(t - 0.1))"
    raw["n"] = 200


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (_explosive, "error: path exceeded 100000 jumps; rates look explosive"),
        (_spiking, "error: majorant violated at t=0.1"),
        (_never_absorbed, "error: censoring law produced non-positive or non-finite time inf"),
    ],
    ids=["explosive", "majorant", "infinite-censoring"],
)
def test_simulate_sampler_failures_exit_1(tmp_path, capsys, deadline, mutate, needle):
    raw = default_scenario_json(n=1, seed=1)
    mutate(raw)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with deadline(10):
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(needle)
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_tiny_thinning_window_exits_1(tmp_path, capsys, deadline):
    raw = default_scenario_json(n=1, seed=1)
    raw["rates"] = {k: f"{v} + 0*t" for k, v in raw["rates"].items()}
    raw["thinning_window"] = 1e-300
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    with deadline(10):
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'thinning_window' 1e-300 is too small" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [("rates", None), ("rates", "1->2"), ("covariates", None), ("covariates", 3),
     ("censoring", None), ("censoring", ["exponential"])],
)  # fmt: skip
def test_simulate_rejects_wrong_collection_fields(tmp_path, capsys, field, value):
    raw = default_scenario_json(n=5, seed=1)
    raw[field] = value
    scenario = tmp_path / "bad_field.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: scenario field '{field}' must be")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda raw: raw.update(initial_state=7), "initial state 7 is not one of the states"),
        (lambda raw: raw["rates"].update({"3->1": "5.0"}), "rate 3->1 leaves absorbing state 3"),
        (
            lambda raw: raw.update(covariates=[], rates={"1->2": "0.8", "2->3": "0.6"}),
            "scenario field 'covariates' needs at least one law",
        ),
        # numpy would raise OverflowError or refuse low > high at the first draw
        (
            lambda raw: raw["covariates"][0].update(low=-1e308, high=1e308),
            "uniform covariate law needs low <= high and a finite high - low: -1e+308, 1e+308",
        ),
        (
            lambda raw: raw["covariates"][0].update(high=math.inf),
            "uniform covariate law needs low <= high",
        ),
        (
            lambda raw: raw["covariates"][0].update(low=math.nan),
            "uniform covariate law needs low <= high",
        ),
        (
            lambda raw: raw["covariates"][0].update(low=2.0),
            "uniform covariate law needs low <= high",
        ),
        (
            lambda raw: raw.update(censoring={"law": "uniform", "low": 1.0, "high": math.inf}),
            "uniform censoring needs 0 <= low < high < inf, got 1.0, inf",
        ),
        # a subject that is never absorbed would end at t = inf
        (
            lambda raw: raw.update(censoring={"law": "fixed", "value": math.inf}),
            "fixed censoring time must be positive and finite, got inf",
        ),
        # a covariate law that cannot give a finite value is refused at load
        (
            lambda raw: raw.update(
                covariates=[{"law": "discrete", "values": [0.25, math.inf], "probs": [0.5, 0.5]}]
            ),
            "discrete law values must be finite numbers: [0.25, inf]",
        ),
        (
            lambda raw: raw.update(covariates=[{"law": "normal", "mean": 0.5, "sd": math.inf}]),
            "normal covariate law needs a finite mean and sd: 0.5, inf",
        ),
        (
            lambda raw: raw.update(covariates=[{"law": "normal", "mean": math.nan, "sd": 1.0}]),
            "normal covariate law needs a finite mean and sd: nan, 1.0",
        ),
        # a draw that overflows breaks the path rules; the rates do not read it
        (
            lambda raw: raw.update(
                n=100,
                covariates=[{"law": "normal", "mean": 0.5, "sd": 1e308}],
                rates={"1->2": "0.8", "1->3": "0.4", "2->3": "0.6"},
            ),
            "subject 19: non-finite covariate in (inf,)",
        ),
    ],
    ids=["unknown-initial-state", "rate-out-of-absorbing", "no-covariates",
         "uniform-range-overflows", "uniform-infinite-high", "uniform-nan-low",
         "uniform-low-above-high", "uniform-censoring-infinite-high", "fixed-censoring-infinite",
         "discrete-infinite-value", "normal-infinite-sd", "normal-nan-mean",
         "normal-draw-overflows"],
)  # fmt: skip
def test_simulate_rejects_scenario_it_would_misrepresent(tmp_path, capsys, mutate, needle):
    raw = default_scenario_json(n=5, seed=1)
    mutate(raw)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {needle}")
    assert not out.exists()


_DEEP_RATE = {"1->2": "+".join(["x1"] * 900)}
_UNARY_RATE = {"1->2": "-" * 100_000 + "1"}


@pytest.mark.parametrize(
    "text, needle",
    [
        ("[" * 100_000 + "]" * 100_000, "error: scenario JSON is nested too deeply"),
        (json.dumps({**default_scenario_json(), "rates": _DEEP_RATE}), "error: expression too deep"),
        (json.dumps({**default_scenario_json(), "rates": _UNARY_RATE}), "error: expression too deep"),
    ],
    ids=["deep-document", "900-term-rate", "deep-unary-rate"],
)
def test_simulate_refuses_scenario_outside_contract(tmp_path, capsys, text, needle):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(needle), lines
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1" * 5001, "1" * 5001 + "+"], ids=["literal", "literal-plus"])
def test_simulate_error_quotes_at_most_80_characters_of_a_rate(tmp_path, capsys, rate):
    raw = default_scenario_json(n=10, seed=1)
    raw["rates"]["1->2"] = rate
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "1" * 80 in lines[0] and "1" * 81 not in lines[0]
    assert len(lines[0]) < 400, lines[0]


# runs cli.main in a fresh interpreter with the package's directory on sys.path
_MAIN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from condaalen.cli import main; sys.exit(main(sys.argv[2:]))"
)


def test_simulate_refuses_integer_power_tower(tmp_path):
    # as integers, 10**10**10 has ten billion digits and no Python signal can
    # interrupt the power, so it runs in a child that the timeout kills
    raw = default_scenario_json(n=10, seed=1)
    raw["rates"]["1->2"] = "10**10**10"
    scenario = tmp_path / "tower.json"
    scenario.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    argv = ["simulate", "--scenario", str(scenario), "--out", str(out)]
    package = str(Path(condaalen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, package, *argv], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: rate 1->2 at t=0.0: "), lines
    assert not out.exists()


def _main_within(megabytes):
    """_MAIN, in a child that first bounds its own address space."""
    limit = f"({megabytes} << 20, {megabytes} << 20)"
    return f"import resource; resource.setrlimit(resource.RLIMIT_AS, {limit}); " + _MAIN


# numpy loads in 400 MB, but the surfaces of a 3000-point grid at n = 2000 do not fit
_MAIN_IN_400_MB = _main_within(400)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_covariance_out_of_memory_exits_1_without_a_traceback(tmp_path):
    sc = default_scenario(n=2000, seed=3)
    sample = tmp_path / "sample.csv"
    write_sample(simulate_sample(sc["intensity"], sc["censoring"], 2000, 3), sample)
    argv = ["covariance", "--input", str(sample), "--x", "0.5", "--grid", "3000"]
    package = str(Path(condaalen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_IN_400_MB, package, *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["error: covariance --grid 3000: out of memory"]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize("megabytes", [200, 250, 370, 390])
def test_covariance_out_of_memory_in_the_gram_product_prints_one_error_line(tmp_path, megabytes):
    # At this x one censored subject without jumps holds all the weight, so
    # no hazard pair is written and the first large product is _gram's. Each
    # limit once ended another way: 370 and 390 MB in OpenBLAS's own exit
    # message at _gram, before the CLI mapped its buffer early; 200 MB in a
    # MemoryError traceback while condaalen imported scipy, and 250 MB in the
    # exit message of scipy's OpenBLAS. Without scipy, 370 and 390 MB run
    # to the end.
    sc = default_scenario(n=2000, seed=3)
    sample = tmp_path / "sample.csv"
    write_sample(simulate_sample(sc["intensity"], sc["censoring"], 2000, 3), sample)
    argv = ["covariance", "--input", str(sample), "--x", "0.3006256189595923"]
    argv += ["--bandwidth", "1e-5", "--grid", "1500", "--out", str(tmp_path / "out")]
    package = str(Path(condaalen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _main_within(megabytes), package, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("warning: ")]
    if proc.returncode == 0:
        assert lines == []
    else:
        assert proc.returncode == 1
        assert lines == ["error: covariance --grid 1500: out of memory"]


def test_covariance_at_one_surface_point(tmp_path):
    # the point is the first event time, so no point starts in the
    # occupation pass's blocks of late steps
    sc = default_scenario(n=1000, seed=1)
    sample = tmp_path / "sample.csv"
    write_sample(simulate_sample(sc["intensity"], sc["censoring"], 1000, 1), sample)
    out = tmp_path / "out"
    argv = ["covariance", "--input", str(sample), "--x", "0.5", "--grid", "1", "--out", str(out)]
    assert main(argv) == 0
    assert len(json.loads((out / "cov_meta_0.json").read_text())["grid"]) == 1
    for s in (1, 2, 3):
        with open(out / f"cov_occupation_{s}_0.csv", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 1


def test_fit_writes_expected_files(workspace):
    out = workspace / "fit"
    code = main(
        [
            "fit",
            "--input",
            str(workspace / "sample.csv"),
            "--x",
            "0.3",
            "--x",
            "0.7",
            "--json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for i in (0, 1):
        assert (out / f"hazard_{i}.csv").exists()
        assert (out / f"occupation_{i}.csv").exists()
        assert (out / f"fit_{i}.json").exists()

    with open(out / "hazard_0.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["quantity"] == "hazard"
    hazard_rows = [r for r in rows if r["quantity"] == "hazard"]
    assert {(r["j"], r["k"]) for r in hazard_rows} == {
        ("1", "2"), ("1", "3"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "2")
    }
    exposure_rows = [r for r in rows if r["quantity"] == "exposure"]
    assert exposure_rows and all(r["k"] == "" for r in exposure_rows)

    body = json.loads((out / "fit_0.json").read_text())
    assert body["x"] == [0.3]
    assert body["states"] == [1, 2, 3]
    assert len(body["grid"]) == len(body["hazard"]["1->2"])
    occ = np.array([body["occupation"][s]["values"] for s in ("1", "2", "3")])
    np.testing.assert_allclose(occ.sum(axis=0), occ[:, 0].sum(), atol=1e-12)


def test_fit_output_matches_library(workspace):
    from condaalen.estimators import fit as fit_fn

    body = json.loads((workspace / "fit" / "fit_1.json").read_text())
    sample = load_sample(workspace / "sample.csv")
    r = fit_fn(sample, (0.7,))
    assert body["bandwidth"] == r.bandwidth
    np.testing.assert_array_equal(body["grid"], r.hazard.times)
    idx = (r.hazard.states.index(1), r.hazard.states.index(2))
    np.testing.assert_array_equal(
        body["hazard"]["1->2"], r.hazard.hazard.values[:, idx[0], idx[1]]
    )


def test_fit_degenerate_point_exits_2(workspace, capsys):
    out = workspace / "degenerate"
    code = main(
        [
            "fit",
            "--input",
            str(workspace / "sample.csv"),
            "--x",
            "40.0",
            "--bandwidth",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert "no kernel mass" in capsys.readouterr().err


_GOOD_ROWS = [
    "id,time,state,end,x1",
    "a,0,1,,0.3",
    "a,0.5,2,0,",
    "b,0,1,,0.6",
    "b,1.0,1,1,",
]


@pytest.mark.parametrize(
    "line, row",
    [
        (4, "b,0,1,,nan"),  # NaN covariate
        (5, "b,inf,1,1,"),  # infinite censoring time
        (3, "a,nan,2,0,"),  # NaN jump time
    ],
)
def test_fit_rejects_non_finite_input(tmp_path, capsys, line, row):
    rows = list(_GOOD_ROWS)
    rows[line - 1] = row
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(rows) + "\n")
    code = main(["fit", "--input", str(data), "--x", "0.5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"line {line}" in err
    assert "Traceback" not in err


def test_fit_refuses_oversize_cell_by_line(tmp_path, capsys):
    rows = list(_GOOD_ROWS)
    rows[3] = "b,0,1,," + "9" * 200_000
    data = tmp_path / "big.csv"
    data.write_text("\n".join(rows) + "\n")
    code = main(["fit", "--input", str(data), "--x", "0.5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: line 4: field larger than field limit (131072)"]


@pytest.mark.parametrize(
    "rows, needle",
    [
        (["c,0,2,,0.4", "c,1.5,2,1,"], "initial state 2 is absorbing"),
        (["c,0,1,,0.4", "c,1.0,2,,", "c,1.5,1,1,"], "jump out of absorbing state 2 at t=1.5"),
        (["c,0,1,0,0.4"], "no row after the time-0 row"),
    ],
    ids=["absorbing-start", "jump-out-of-absorbing", "time-0-row-only"],
)
def test_fit_rejects_invalid_path_by_id_and_line(tmp_path, capsys, rows, needle):
    # subject c starts on line 6; state 2 is absorbing because subject a ends there
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(_GOOD_ROWS + rows) + "\n")
    code = main(["fit", "--input", str(data), "--x", "0.5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert needle in err
    assert "id 'c'" in err
    assert "line 6" in err
    assert ";" not in err  # one message, not a cascade
    assert "Traceback" not in err


def test_fit_atoms_flag(workspace, tmp_path):
    out = tmp_path / "atom_fit"
    code = main(
        [
            "fit",
            "--input",
            str(workspace / "sample.csv"),
            "--x",
            "0.5",
            "--atoms",
            "1:0.5,0.9",
            "--out",
            str(out),
        ]
    )
    # every simulated covariate is off the atom, so the point has no mass
    assert code == 2


def test_fit_rejects_malformed_atoms(workspace, tmp_path, capsys):
    args = [
        "fit",
        "--input",
        str(workspace / "sample.csv"),
        "--x",
        "0.5",
        "--out",
        str(tmp_path / "never"),
    ]
    assert main(args + ["--atoms", "0.5"]) == 1
    assert main(args + ["--atoms", "3:0.5"]) == 1
    assert main(args + ["--atoms", "one:0.5"]) == 1
    capsys.readouterr()


def test_fit_warns_on_floor_and_horizon(workspace, capsys):
    out = workspace / "warned"
    code = main(
        [
            "fit",
            "--input",
            str(workspace / "sample.csv"),
            "--x",
            "0.5",
            "--theta",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "beyond horizon" in err
    # floors engage here only where no subject leaves the state
    assert "floor engaged" not in err


def test_fit_warns_when_floor_changes_an_increment(tmp_path, capsys):
    sample = tmp_path / "floor.csv"
    write_sample(_floor_sample(), sample)
    argv = ["fit", "--input", str(sample), "--x", "0.5", "--bandwidth", "1.0"]
    code = main(argv + ["--epsilon", "0.3", "--out", str(tmp_path / "fit")])
    assert code == 0
    err = capsys.readouterr().err
    assert "floor engaged at 2 state-time pairs with outgoing events" in err
    assert "first in state 1 at t=3" in err


def test_covariance_outputs(workspace):
    out = workspace / "cov"
    code = main(
        [
            "covariance",
            "--input",
            str(workspace / "sample.csv"),
            "--x",
            "0.5",
            "--grid",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    meta = json.loads((out / "cov_meta_0.json").read_text())
    assert meta["pairs"] == ["1->2", "1->3", "2->3"]
    g = len(meta["grid"])
    with open(out / "cov_hazard_1_2_0.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == g * g
    values = np.array([float(r["value"]) for r in rows]).reshape(g, g)
    np.testing.assert_array_equal(values, values.T)
    assert np.linalg.eigvalsh(values).min() >= -1e-10
    for s in (1, 2, 3):
        assert (out / f"cov_occupation_{s}_0.csv").exists()


def test_surface_writer_matches_csv_writer(tmp_path):
    grid = np.array([0.5, 1.0, 2.0, 1e-300])
    values = np.array(
        [
            [-0.0, 1e-300, -2.5, 3.0],
            [1e300, -1.0 / 3.0, 0.0, -7.0],
            [2.0**-1074, 1.0, 123456789.0, -1e-5],
            [0.1, -0.0, 5e-324, 2.0],
        ]
    )
    path = tmp_path / "surface.csv"
    _write_surface(CovarianceSurface(grid, values), str(path))
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["s", "t", "value"])
        for a, s in enumerate(grid):
            for b, t in enumerate(grid):
                writer.writerow([format(s, ".17g"), format(t, ".17g"), format(values[a, b], ".17g")])
    assert path.read_bytes() == expected.read_bytes()


def test_check_quick_passes(capsys):
    assert main(["check", "--quick"]) == 0
    out, err = capsys.readouterr()
    # the report is all it prints: the determinism check's own runs stay quiet
    assert err == ""
    for name in (
        "conservation",
        "exposure-identity",
        "beran-reduction",
        "landmark-reduction",
        "product-integral-order",
        "surface-shape",
        "floor-behavior",
        "determinism",
    ):
        assert f"PASS {name}" in out
    assert "SKIP consistency" in out
    assert "SKIP covariance-sanity" in out


def test_check_that_raises_fails_by_name(monkeypatch, capsys):
    def broken():
        raise RuntimeError("fixture went missing")

    monkeypatch.setattr(checks, "_CHECKS", checks._CHECKS + (("broken", broken, False),))
    assert main(["check", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL broken: RuntimeError: fixture went missing (" in out
    assert "PASS conservation" in out


def test_round_trip_through_cli(workspace, tmp_path):
    s = load_sample(workspace / "sample.csv")
    from condaalen.data import write_sample

    copy = tmp_path / "copy.csv"
    write_sample(s, copy)
    assert copy.read_bytes() == (workspace / "sample.csv").read_bytes()


FIT = ["fit", "--input", "{sample}", "--out", "{out}"]
COV = ["covariance", "--input", "{sample}", "--out", "{out}"]
SIM = ["simulate", "--scenario", "{scenario}", "--out", "{out}"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (FIT + ["--x", "0.5", "--theta", "inf", "--json"], "--theta"),
        (FIT + ["--x", "0.5", "--theta", "nan", "--json"], "--theta"),
        (COV + ["--x", "0.5", "--grid", "0"], "--grid"),
        (COV + ["--x", "0.5", "--grid", "-3"], "--grid"),
        (SIM + ["--n", "-2"], "--n"),
        (SIM + ["--n", "0"], "--n"),
        (FIT + ["--x", "nan"], "--x"),
        (FIT + ["--x", "0.5", "--epsilon", "abc"], "--epsilon"),
        (["fit", "--out", "{out}", "--x", "0.5"], "--input"),
        (["frobnicate", "--out", "{out}"], "frobnicate"),
        (FIT + ["--x", "0.5", "--atoms", "1:nan"], "--atoms"),
        (COV + ["--x", "0.5", "--atoms", "1:0.2,inf"], "--atoms"),
        (FIT + ["--x", "0.5", "--atoms", "1:0.5", "--atoms", "1:0.7"], "--atoms"),
        # the acceptance suite runs on its built-in fixtures only
        (["check", "--scenario", "x.json"], "--scenario"),
    ],
    ids=[
        "theta-inf", "theta-nan", "grid-0", "grid-negative", "n-negative", "n-0",
        "x-nan", "epsilon-abc", "missing-input", "unknown-subcommand",
        "atoms-nan", "atoms-inf", "atoms-repeated-dimension", "check-scenario",
    ],
)
def test_cli_rejects_bad_arguments(workspace, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    paths = dict(
        sample=workspace / "sample.csv", scenario=workspace / "scenario.json", out=out
    )
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err.strip().splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["fit", "--help"]) == 0
    assert "--epsilon" in capsys.readouterr().out
