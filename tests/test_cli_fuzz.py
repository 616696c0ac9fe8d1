"""The CLI exit-code contract under fuzzed inputs.

Every run of ``cli.main`` returns 0 (ok), 1 (bad input) or 2 (no kernel
mass), raises nothing and emits no warning. Exit 1 prints exactly one
``error:`` line; exit 2 names the evaluation point that had no mass.
Inputs are mutants of a small default-scenario sample CSV, run through
``fit`` and ``covariance`` with drawn flag values, and mutants of the
default scenario file, run through ``simulate``: wrong-typed, infinite,
NaN and extreme fields and law parameters, censoring laws that can reach
a subject stuck in a state with no way out, a spiking thinning rate,
whole documents that are not a scenario object, rates nested too
deeply to compile, and the values of a ``discrete`` covariate law or
the ``sd`` of a ``normal`` one. A ``simulate`` run that exits 0 must
write a sample that ``load_sample`` reads back. The examples are fixed: a set seed,
derandomised, no example database.
"""

import contextlib
import copy
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from condaalen.cli import main
from condaalen.data import load_sample, write_sample
from condaalen.simulate import default_scenario, default_scenario_json, simulate_sample

FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

TOKENS = (
    "", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-300", "1e22",
    "a,b", "s0", "0", "1", "2", "3", "-1", "x",
    "9" * 200_000,  # over csv's field size limit
)  # fmt: skip
# valid values repeat, so that most runs get past the flag checks
X_VALUES = ("0.5", "0.5", "0.1", "0.9", "0.05", "1e308", "-1e308", "0.5,0.5", "nan", "abc")
ATOMS = (None, None, None, "1:0.5", "1:0.5,0.1", "2:0.5", "x:1")
BANDWIDTHS = (None, None, "0.3", "0.05", "1e-300", "1e300", "-1")
GRIDS = ("1", "3", "3", "0")
JSON_VALUES = (
    None, "x", 1, 2.5, True, [], [1], {}, {"a": 1},
    float("inf"), float("nan"), 1e308, -1e308,
)  # fmt: skip
# censoring laws, each with its last parameter replaced by a mutant; 1e-320
# as an exponential rate makes the mean 1 / rate overflow
CENSORING = (
    {"law": "fixed", "value": 2.0},
    {"law": "exponential", "rate": "0.3"},
    {"law": "uniform", "low": 0.0, "high": 2.0},
)
CENSORING_VALUES = JSON_VALUES + ("1e-320",)
# covariate laws whose values or sd a mutant replaces, under rates that do
# not read the covariate, so that every value drawn reaches the sample
CONSTANT_RATES = {"1->2": "0.8", "1->3": "0.4", "2->3": "0.6"}
COVARIATE_LAWS = (
    {"law": "discrete", "values": [0.25, 0.75], "probs": [0.5, 0.5]},
    {"law": "normal", "mean": 0.5, "sd": 0.2},
)
# whole scenario files; json.dumps cannot write the 100,000-deep list
DOCUMENTS = tuple(json.dumps(v) for v in JSON_VALUES) + ("[" * 100_000 + "]" * 100_000,)
# rates that the parser, the rewrite or the compiler cannot take
DEEP_RATES = ("+".join(["x1"] * 900), "-" * 1000 + "1")
# a rate that spikes between the thinning majorant's probe points
SPIKE = "1 + 1000*max(0, 0.01 - abs(t - 0.1))"


def _base_rows() -> list[list[str]]:
    sc = default_scenario(n=12, seed=5)
    sample = simulate_sample(sc["intensity"], sc["censoring"], 12, 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        write_sample(sample, path)
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.reader(handle))


BASE_ROWS = _base_rows()


@st.composite
def csv_mutants(draw) -> str:
    rows = copy.deepcopy(BASE_ROWS)
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(("cell", "cell", "delete", "duplicate")))
        i = draw(st.integers(1, len(rows) - 1)) if len(rows) > 1 else 0
        if action == "cell":
            j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
            if rows[i]:
                rows[i][j] = draw(st.sampled_from(TOKENS))
        elif action == "delete":
            del rows[i]
        else:
            rows.insert(i, list(rows[i]))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


@st.composite
def fit_argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("fit", "covariance")))
    argv = [command]
    for x in draw(st.lists(st.sampled_from(X_VALUES), min_size=1, max_size=2)):
        argv += ["--x", x]
    atoms = draw(st.sampled_from(ATOMS))
    if atoms is not None:
        argv += ["--atoms", atoms]
    bandwidth = draw(st.sampled_from(BANDWIDTHS))
    if bandwidth is not None:
        argv += ["--bandwidth", bandwidth]
    if command == "covariance":
        argv += ["--grid", draw(st.sampled_from(GRIDS))]
    return argv


@st.composite
def scenario_mutants(draw) -> str:
    raw = default_scenario_json(n=5, seed=1)
    kind = draw(st.sampled_from(("field", "law", "spike", "document", "expression", "censoring")))
    if kind == "document":
        return draw(st.sampled_from(DOCUMENTS))
    if kind == "field":
        raw[draw(st.sampled_from(sorted(raw)))] = draw(st.sampled_from(JSON_VALUES))
    elif kind == "law":
        law, key = draw(
            st.sampled_from(
                ((raw["covariates"][0], "low"), (raw["covariates"][0], "high"),
                 (raw["censoring"], "rate"), (raw["covariates"], 0))
            )  # fmt: skip
        )
        law[key] = draw(st.sampled_from(JSON_VALUES))
    elif kind == "expression":
        raw["rates"]["1->2"] = draw(st.sampled_from(DEEP_RATES))
    elif kind == "censoring":
        # state 2 has no way out, so a subject in it ends at its censoring time
        del raw["rates"]["2->3"]
        law = dict(draw(st.sampled_from(CENSORING)))
        law[list(law)[-1]] = draw(st.sampled_from(CENSORING_VALUES))
        raw["censoring"] = law
    else:
        raw["rates"]["1->2"] = SPIKE
        raw["n"] = 200
    return json.dumps(raw)


@st.composite
def covariate_law_mutants(draw) -> str:
    law = copy.deepcopy(draw(st.sampled_from(COVARIATE_LAWS)))
    value = draw(st.sampled_from(JSON_VALUES))
    if law["law"] == "discrete":
        law["values"][draw(st.integers(0, 1))] = value
    else:
        law["sd"] = value
    return _covariate_law(law)


def _covariate_law(law: dict) -> str:
    raw = default_scenario_json(n=5, seed=1)
    return json.dumps({**raw, "covariates": [law], "rates": CONSTANT_RATES})


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; fails on any warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, err.getvalue()


def _check_error_lines(code: int, stderr: str) -> None:
    errors = [line for line in stderr.splitlines() if "error:" in line]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1, stderr


def _check_simulate(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(text, encoding="utf-8")
        out = Path(tmp) / "sample.csv"
        code, stderr = _run(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code in (0, 1)
        _check_error_lines(code, stderr)
        assert out.exists() == (code == 0)
        if code == 0:
            # what simulate writes, fit can read
            load_sample(out)


@seed(20260)
@given(csv_mutants(), fit_argvs())
@FUZZ
def test_fit_and_covariance_keep_the_exit_code_contract(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        sample = Path(tmp) / "sample.csv"
        sample.write_text(text, encoding="utf-8")
        code, stderr = _run(argv + ["--input", str(sample), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    _check_error_lines(code, stderr)
    if code == 2:
        xs = [argv[i + 1] for i, flag in enumerate(argv) if flag == "--x"]
        named = {f"error: no kernel mass at x={tuple(float(c) for c in x.split(','))}" for x in xs}
        assert stderr.splitlines()[-1] in named


@seed(20261)
@given(scenario_mutants())
@FUZZ
def test_simulate_keeps_the_exit_code_contract(text):
    _check_simulate(text)


@seed(20263)
@given(covariate_law_mutants())
@example(_covariate_law({"law": "discrete", "values": [0.25, float("inf")], "probs": [0.5, 0.5]}))
@example(_covariate_law({"law": "normal", "mean": 0.5, "sd": 1e308}))
@FUZZ
def test_simulate_keeps_the_exit_code_contract_on_covariate_laws(text):
    _check_simulate(text)

