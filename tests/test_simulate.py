import json
import math
import tracemalloc

import numpy as np
import pytest

from condaalen.data import ABSORBED, CENSORED, Sample, StateSpace
from condaalen.estimators import fit
from condaalen.kernels import KernelSpec
from condaalen.simulate import (
    MARKOV,
    SEMI_MARKOV,
    ExpressionError,
    IntensitySpec,
    brute_force_estimator,
    compile_expression,
    default_scenario,
    default_scenario_json,
    load_scenario,
    markov_occupation_oracle,
    simulate_path,
    simulate_sample,
)


def _scenario_dict(**overrides):
    raw = default_scenario_json(n=50, seed=9)
    raw.update(overrides)
    return raw


def test_simulation_is_deterministic():
    sc = default_scenario(n=30, seed=5)
    s1 = simulate_sample(sc["intensity"], sc["censoring"], 30, 5)
    s2 = simulate_sample(sc["intensity"], sc["censoring"], 30, 5)
    for p, q in zip(s1.paths, s2.paths):
        assert p == q
    # different seed moves every path
    s3 = simulate_sample(sc["intensity"], sc["censoring"], 30, 6)
    assert any(p != q for p, q in zip(s1.paths, s3.paths))


def test_simulated_samples_validate():
    sc = default_scenario(n=200, seed=13)
    s = simulate_sample(sc["intensity"], sc["censoring"], 200, 13)
    # the sampler checks the path rules on its columns; its paths pass them again
    Sample(s.paths, s.state_space).table  # noqa: B018
    assert {p.end_reason for p in s.paths} == {ABSORBED, CENSORED}


def test_zero_rates_censor_everyone():
    raw = _scenario_dict(rates={"1->2": "0.0"})
    sc = load_scenario(raw)
    s = simulate_sample(sc["intensity"], sc["censoring"], 20, 3)
    for p in s.paths:
        assert p.jumps == ()
        assert p.end_reason == CENSORED


def test_negative_rate_rejected():
    raw = _scenario_dict(rates={"1->2": "-1.0"})
    sc = load_scenario(raw)
    with pytest.raises(ValueError, match="negative rate"):
        simulate_path(sc["intensity"], sc["censoring"], 1, 0)


def test_semi_markov_without_duration_matches_markov():
    markov = load_scenario(_scenario_dict(kind=MARKOV))
    semi = load_scenario(_scenario_dict(kind=SEMI_MARKOV))
    a = simulate_sample(markov["intensity"], markov["censoring"], 40, 11)
    b = simulate_sample(semi["intensity"], semi["censoring"], 40, 11)
    for p, q in zip(a.paths, b.paths):
        assert p == q


def test_censoring_law_change_keeps_trajectories():
    base = _scenario_dict()
    heavy = load_scenario({**base, "censoring": {"law": "exponential", "rate": "1.5"}})
    light = load_scenario({**base, "censoring": {"law": "fixed", "value": 50.0}})
    for i in range(40):
        p = simulate_path(heavy["intensity"], heavy["censoring"], 21, i)
        q = simulate_path(light["intensity"], light["censoring"], 21, i)
        assert p.covariates == q.covariates
        horizon = min(p.end_time, q.end_time)
        assert tuple(j for j in p.jumps if j[0] <= horizon) == tuple(
            j for j in q.jumps if j[0] <= horizon
        )


def test_censoring_independent_of_first_jump_given_covariate():
    # Recurrent two-state model: with no absorbing state every path ends
    # censored, so R is always observed. A second run with the same seed
    # and an out-of-reach censoring horizon exposes the first jump time
    # of the identical trajectory. Both laws depend on x, so only the
    # narrow covariate window makes zero correlation the right target.
    space = StateSpace((1, 2), frozenset())
    intensity = IntensitySpec(
        kind=MARKOV,
        rate=lambda j, k, t, d, x: (1.0 + x[0]) if (j, k) == (1, 2) else 1.2,
        covariate_law=lambda rng: (rng.uniform(0.0, 1.0),),
        state_space=space,
        initial_state=1,
        time_constant=True,
    )
    real = lambda rng, x: rng.exponential(2.0 / (1.0 + x[0]))
    far = lambda rng, x: 8.0
    n, seed = 1200, 99
    with_r = simulate_sample(intensity, real, n, seed)
    free = simulate_sample(intensity, far, n, seed)
    first, resp = [], []
    for p, q in zip(free.paths, with_r.paths):
        assert q.end_reason == CENSORED
        if not (0.4 <= p.covariates[0] <= 0.6) or not p.jumps:
            continue
        first.append(p.jumps[0][0])
        resp.append(q.end_time)
    m = len(first)
    assert m > 150
    r = np.corrcoef(first, resp)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(m)


def test_thinning_matches_constant_sampler_in_distribution():
    # same law written with and without a vacuous time dependence
    const = load_scenario(_scenario_dict(n=1500))
    rates = {k: v + " + 0*t" for k, v in default_scenario_json()["rates"].items()}
    thin = load_scenario(_scenario_dict(n=1500, rates=rates))
    assert const["intensity"].time_constant
    assert not thin["intensity"].time_constant
    a = simulate_sample(const["intensity"], const["censoring"], 1500, 77)
    b = simulate_sample(thin["intensity"], thin["censoring"], 1500, 78)
    fa = np.mean([p.end_reason == ABSORBED for p in a.paths])
    fb = np.mean([p.end_reason == ABSORBED for p in b.paths])
    se = math.sqrt(fa * (1 - fa) / 1500 + fb * (1 - fb) / 1500)
    assert abs(fa - fb) <= 3 * se
    ta = np.mean([p.end_time for p in a.paths])
    tb = np.mean([p.end_time for p in b.paths])
    sd = math.sqrt(
        np.var([p.end_time for p in a.paths]) / 1500
        + np.var([p.end_time for p in b.paths]) / 1500
    )
    assert abs(ta - tb) <= 3 * sd


def test_thinning_survival_matches_closed_form():
    # single 1 -> 2 transition with rate 1 + t: S(t) = exp(-(t + t^2/2))
    raw = {
        "states": [1, 2],
        "absorbing": [2],
        "initial_state": 1,
        "covariates": [{"law": "uniform", "low": 0.0, "high": 1.0}],
        "rates": {"1->2": "1 + t"},
        "censoring": {"law": "fixed", "value": 40.0},
        "n": 4000,
        "seed": 15,
    }
    sc = load_scenario(raw)
    s = simulate_sample(sc["intensity"], sc["censoring"], 4000, 15)
    death = np.array([p.end_time for p in s.paths])
    assert all(p.end_reason == ABSORBED for p in s.paths)
    for t in (0.3, 0.7, 1.2):
        want = math.exp(-(t + t * t / 2))
        got = float(np.mean(death > t))
        se = math.sqrt(want * (1 - want) / 4000)
        assert abs(got - want) <= 3.5 * se


def test_oracle_constant_two_state():
    raw = {
        "states": [1, 2],
        "absorbing": [2],
        "initial_state": 1,
        "covariates": [{"law": "uniform", "low": 0.0, "high": 1.0}],
        "rates": {"1->2": "1.0"},
        "censoring": {"law": "fixed", "value": 10.0},
        "n": 5,
        "seed": 1,
    }
    sc = load_scenario(raw)
    grid = np.linspace(0.0, 3.0, 13)
    oracle = markov_occupation_oracle(sc["intensity"], (0.5,), grid)
    np.testing.assert_allclose(oracle[:, 0], np.exp(-grid), atol=1e-12)
    np.testing.assert_allclose(oracle[:, 1], 1 - np.exp(-grid), atol=1e-12)


def test_oracle_time_varying_matches_closed_form():
    raw = {
        "states": [1, 2],
        "absorbing": [2],
        "initial_state": 1,
        "covariates": [{"law": "uniform", "low": 0.0, "high": 1.0}],
        "rates": {"1->2": "1 + t"},
        "censoring": {"law": "fixed", "value": 10.0},
        "n": 5,
        "seed": 1,
    }
    sc = load_scenario(raw)
    grid = np.linspace(0.0, 2.0, 9)
    oracle = markov_occupation_oracle(sc["intensity"], (0.5,), grid)
    want = np.exp(-(grid + grid**2 / 2))
    np.testing.assert_allclose(oracle[:, 0], want, atol=1e-8)


def test_oracle_time_varying_matches_midpoint_product():
    sc = default_scenario(n=5, seed=1)
    rates = {k: v + " * (1 + 0.5*t)" for k, v in default_scenario_json()["rates"].items()}
    varying = load_scenario(_scenario_dict(rates=rates))
    x = (0.4,)
    horizon = 1.5
    oracle = markov_occupation_oracle(varying["intensity"], x, np.array([horizon]))

    steps = 3000
    edges = np.linspace(0.0, horizon, steps + 1)
    p = np.array([1.0, 0.0, 0.0])
    intensity = varying["intensity"]
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        q = np.zeros((3, 3))
        for a, sj in enumerate((1, 2, 3)):
            for b, sk in enumerate((1, 2, 3)):
                if sj != sk and sj != 3:
                    q[a, b] = intensity.rate(sj, sk, mid, 0.0, x)
        np.fill_diagonal(q, -q.sum(axis=1))
        qh = q * (hi - lo)
        p = p @ (np.eye(3) + qh + qh @ qh / 2)
    np.testing.assert_allclose(oracle[0], p, atol=1e-6)
    del sc


def test_oracle_input_validation():
    sc = load_scenario(_scenario_dict(kind=SEMI_MARKOV))
    with pytest.raises(ValueError, match="markov"):
        markov_occupation_oracle(sc["intensity"], (0.5,), [0.0, 1.0])
    mk = load_scenario(_scenario_dict())
    with pytest.raises(ValueError, match="grid"):
        markov_occupation_oracle(mk["intensity"], (0.5,), [1.0, 0.5])


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1])
def test_oracle_refuses_non_finite_grid_points(point, at):
    # every comparison with nan is false, so the order check alone would
    # pass [0, nan] and return a row of nan
    grid = [0.0, 1.0]
    grid[at] = point
    mk = load_scenario(_scenario_dict())
    with pytest.raises(ValueError, match=f"^grid point {at} must be a finite number, got "):
        markov_occupation_oracle(mk["intensity"], (0.5,), grid)


def test_zero_rate_windows_advance_thinning():
    raw = _scenario_dict(rates={"1->2": "0 * t"})
    sc = load_scenario(raw)
    assert not sc["intensity"].time_constant
    p = simulate_path(sc["intensity"], sc["censoring"], 2, 0)
    assert p.jumps == ()
    assert p.end_reason == CENSORED


def test_thinning_window_without_progress_raises(deadline):
    # a window that does not move t would loop forever
    space = StateSpace((1, 2), frozenset({2}))
    intensity = IntensitySpec(
        kind=MARKOV,
        rate=lambda j, k, t, d, x: 0.8 + 0 * t,
        covariate_law=lambda rng: (0.5,),
        state_space=space,
        initial_state=1,
        thinning_window=0.0,
    )
    with deadline(10), pytest.raises(ValueError, match="thinning window 0.0 makes no progress"):
        simulate_path(intensity, lambda rng, x: 1.0, 1, 0)


@pytest.mark.parametrize("window", [0, -0.5, math.nan, math.inf, "0.25", True, None])
def test_scenario_rejects_bad_thinning_window(window, deadline):
    raw = _scenario_dict(rates={"1->2": "0.8*(1+x1) + 0*t"}, thinning_window=window)
    with deadline(10), pytest.raises(ValueError, match="'thinning_window' must be a finite number > 0"):
        sc = load_scenario(raw)
        simulate_sample(sc["intensity"], sc["censoring"], 3, 1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", None),
        ("n", 2.5),
        ("n", 2.0),
        ("n", "10"),
        ("n", True),
        ("seed", 1.5),
        ("seed", True),
        ("seed", None),
        ("seed", "3"),
        ("initial_state", 1.0),
        ("initial_state", "1"),
        ("states", [1, 2.5, 3]),
        ("states", [1, "2", 3]),
        ("states", None),
        ("absorbing", [3.0]),
        ("absorbing", [None]),
    ],
)
def test_scenario_integer_fields_must_be_integers(field, value):
    raw = _scenario_dict(**{field: value})
    with pytest.raises(ValueError, match=f"scenario field '{field}' must be") as info:
        load_scenario(raw)
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "field,value",
    [
        ("rates", None),
        ("rates", "1->2"),
        ("rates", [["1->2", "0.8"]]),
        ("covariates", None),
        ("covariates", 3),
        ("covariates", {"law": "uniform"}),
        ("censoring", None),
        ("censoring", "exponential"),
        ("censoring", [1]),
    ],
)
def test_scenario_collection_fields_must_be_collections(field, value):
    raw = _scenario_dict(**{field: value})
    with pytest.raises(ValueError, match=f"scenario field '{field}' must be") as info:
        load_scenario(raw)
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (
            lambda d: d.update(covariates=[None]),
            "scenario field 'covariates' must hold law objects",
        ),
        (
            lambda d: d["covariates"][0].update(low=None),
            "uniform law needs a number 'low', got None",
        ),
        (
            lambda d: d.update(covariates=[{"law": "normal", "mean": 0.0, "sd": [1]}]),
            r"normal law needs a number 'sd', got \[1\]",
        ),
        (
            lambda d: d.update(censoring={"law": "uniform", "low": {}, "high": 2.0}),
            "uniform law needs a number 'low'",
        ),
        (
            lambda d: d.update(censoring={"law": "fixed", "value": None}),
            "fixed law needs a number 'value'",
        ),
    ],
    ids=["law-null", "uniform-low", "normal-sd", "censoring-low", "censoring-value"],
)
def test_scenario_law_parameters_must_be_numbers(mutate, needle):
    raw = _scenario_dict()
    mutate(raw)
    with pytest.raises(ValueError, match=needle) as info:
        load_scenario(raw)
    assert type(info.value) is ValueError


def test_tiny_thinning_window_is_bounded(deadline):
    # a positive window so small that a path would need ~1e300 of them
    raw = _scenario_dict(rates={"1->2": "0.8*(1+x1) + 0*t"}, thinning_window=1e-300)
    sc = load_scenario(raw)
    with deadline(10), pytest.raises(ValueError, match="'thinning_window' 1e-300 is too small"):
        simulate_path(sc["intensity"], sc["censoring"], 1, 0)


def test_scenario_from_file(tmp_path):
    f = tmp_path / "scen.json"
    f.write_text(json.dumps(default_scenario_json(n=7, seed=2)))
    sc = load_scenario(f)
    assert sc["n"] == 7
    assert sc["seed"] == 2
    s = simulate_sample(sc["intensity"], sc["censoring"], sc["n"], sc["seed"])
    assert len(s) == 7


@pytest.mark.parametrize(
    "mangle,needle",
    [
        (lambda d: d.pop("rates"), "missing field"),
        (lambda d: d.pop("states"), "missing field"),
        (lambda d: d.update(rates={"1->1": "1.0"}), "bad rate key"),
        (lambda d: d.update(rates={"7->2": "1.0"}), "bad rate key"),
        (lambda d: d.update(rates={"oops": "1.0"}), "bad rate key"),
        (lambda d: d.update(censoring={"law": "gamma"}), "censoring law"),
        (lambda d: d.update(covariates=[{"law": "beta"}]), "covariate law"),
        (lambda d: d.update(kind="hidden"), "kind"),
        # each of these would load and simulate, writing a sample the scenario
        # does not describe or that fit cannot read
        (lambda d: d.update(initial_state=7), "initial state 7 is not one of the states"),
        (lambda d: d["rates"].update({"3->1": "5.0"}), "rate 3->1 leaves absorbing state 3"),
        (
            lambda d: d.update(covariates=[], rates={"1->2": "0.8", "2->3": "0.6"}),
            "scenario field 'covariates' needs at least one law",
        ),
    ],
)
def test_scenario_rejects_malformed(mangle, needle):
    raw = _scenario_dict()
    mangle(raw)
    with pytest.raises(ValueError, match=needle):
        sc = load_scenario(raw)
        simulate_path(sc["intensity"], sc["censoring"], 1, 0)


def test_markov_rate_reading_duration_rejected():
    # the markov oracle evaluates every rate at duration 0, so such a
    # scenario would score the estimator against a wrong truth
    raw = _scenario_dict(rates={"1->2": "0.8", "2->3": "2.0*duration"})
    with pytest.raises(ValueError, match="rate 2->3 reads duration"):
        load_scenario(raw)
    assert load_scenario({**raw, "kind": SEMI_MARKOV})["intensity"].kind == SEMI_MARKOV


@pytest.mark.parametrize("rate", ["0.3 + 5*t", "0.3*(1 + duration)", "0.3 + 0*t"])
def test_censoring_rate_reading_time_rejected(rate):
    # the exponential censoring time is drawn once, at t = 0 and duration 0
    raw = _scenario_dict(censoring={"law": "exponential", "rate": rate})
    with pytest.raises(ValueError, match="censoring rate .* must not read t or duration"):
        load_scenario(raw)


def test_censoring_rate_may_read_covariates():
    raw = _scenario_dict(censoring={"law": "exponential", "rate": "0.3*(1 + x1)"})
    sc = load_scenario(raw)
    assert simulate_path(sc["intensity"], sc["censoring"], 1, 0).end_time > 0


def test_intensity_spec_rejects_absorbing_start():
    space = StateSpace((1, 2), frozenset({2}))
    with pytest.raises(ValueError, match="absorbing"):
        IntensitySpec(
            kind=MARKOV,
            rate=lambda j, k, t, d, x: 1.0,
            covariate_law=lambda rng: (0.5,),
            state_space=space,
            initial_state=2,
        )


def test_initial_state_must_be_a_state():
    space = StateSpace((1, 2, 3), frozenset({3}))
    with pytest.raises(ValueError, match=r"initial state 7 is not one of the states \(1, 2, 3\)"):
        IntensitySpec(
            kind=MARKOV,
            rate=lambda j, k, t, d, x: 1.0,
            covariate_law=lambda rng: (0.5,),
            state_space=space,
            initial_state=7,
        )


def test_censoring_must_be_positive():
    sc = load_scenario(_scenario_dict())
    bad = lambda rng, x: 0.0
    with pytest.raises(ValueError, match="non-positive"):
        simulate_path(sc["intensity"], bad, 1, 0)


def test_expression_grammar_accepts_whitelist():
    fn, used = compile_expression("min(t, 2) + max(x1, 0.1) * sqrt(abs(x))", 1)
    assert used == {"t", "x1", "x"}
    assert fn(1.0, 0.0, (4.0,)) == pytest.approx(1.0 + 4.0 * 2.0)
    fn2, used2 = compile_expression("exp(log(1 + duration))", 2)
    assert used2 == {"duration"}
    assert fn2(0.0, 2.5, (0.0, 0.0)) == pytest.approx(3.5)
    fn3, _ = compile_expression("2 ** 3 - -x2", 2)
    assert fn3(0.0, 0.0, (0.0, 1.5)) == pytest.approx(9.5)


@pytest.mark.parametrize(
    "text",
    [
        "__import__('os')",
        "().__class__",
        "x1 if t else 2",
        "lambda: 3",
        "t < 1",
        "[1, 2]",
        "sin(t)",
        "x9",
        "'a'",
        "t; x1",
        "min(t, key=abs)",
    ],
)
def test_expression_grammar_rejects(text):
    with pytest.raises(ExpressionError):
        compile_expression(text, 1)


@pytest.mark.parametrize(
    "text",
    ["+".join(["x1"] * 500), "-" * 100_000 + "1", "1" + "0" * 400],
    ids=["500-term-sum", "deep-unary", "400-digit-constant"],
)
def test_expression_too_deep_or_large_is_refused(text):
    # a RecursionError, MemoryError or OverflowError while parsing, rewriting
    # or compiling; the message quotes at most 80 characters of the text
    with pytest.raises(ExpressionError, match="too deep or too large") as info:
        compile_expression(text, 1)
    assert repr(text[:80]) in str(info.value)
    assert repr(text[:81]) not in str(info.value)


def test_integer_constants_are_floats():
    # so a power overflows at once instead of building a huge integer; the
    # CLI runs 10**10**10 in test_simulate_refuses_integer_power_tower
    fn, _ = compile_expression("2**1100 * 0", 1)
    with pytest.raises(OverflowError):
        fn(0.0, 0.0, (0.5,))
    # an exact integer power below 2**53 keeps its bits
    fn, _ = compile_expression("2**3 * x1 ** 2 + 10**2 / 7", 1)
    assert fn(0.0, 0.0, (0.3,)) == 2**3 * 0.3**2 + 10**2 / 7


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[1, 2]", "must be a JSON object, got list"),
        ("5", "must be a JSON object, got int"),
        ("null", "must be a JSON object, got NoneType"),
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    ],
    ids=["list", "number", "null", "deep"],
)
def test_scenario_document_outside_contract_is_refused(tmp_path, text, needle):
    f = tmp_path / "scenario.json"
    f.write_text(text)
    with pytest.raises(ValueError, match=needle):
        load_scenario(f)


def test_brute_force_matches_fast_path():
    sc = default_scenario(n=35, seed=4)
    s = simulate_sample(sc["intensity"], sc["censoring"], 35, 4)
    spec = KernelSpec.for_dims(1)
    r = fit(s, (0.5,), spec, epsilon=1e-3)
    slow_h, slow_o = brute_force_estimator(s, spec.eval_point((0.5,)), spec, r.bandwidth, 1e-3)
    np.testing.assert_allclose(r.hazard.hazard.values, slow_h.hazard.values, atol=1e-12)
    np.testing.assert_allclose(r.occupation.values, slow_o.values, atol=1e-12)
    np.testing.assert_allclose(r.occupation.initial, slow_o.initial, atol=1e-12)
    for s_ in (1, 2, 3):
        np.testing.assert_allclose(
            r.hazard.exposure[s_].values, slow_h.exposure[s_].values, atol=1e-12
        )
        # the floor engages in every state here, at plain floats, not numpy scalars
        times = r.hazard.floor_active[s_]
        assert times and times == slow_h.floor_active[s_]
        assert all(type(t) is float for t in times + slow_h.floor_active[s_])


def test_brute_force_agrees_on_tied_times():
    # shared jump and censoring times collapse to single grid points
    from condaalen.data import ObservedPath, Sample

    space = StateSpace((1, 2, 3), frozenset({3}))
    paths = (
        ObservedPath((0.3,), 1, ((1.0, 2),), 1.5, CENSORED),
        ObservedPath((0.5,), 1, ((1.0, 2), (2.0, 3)), 2.0, ABSORBED),
        ObservedPath((0.7,), 1, (), 1.0, CENSORED),
        ObservedPath((0.4,), 1, (), 1.5, CENSORED),
        ObservedPath((0.6,), 1, ((0.5, 3),), 0.5, ABSORBED),
    )
    s = Sample(paths, space)
    spec = KernelSpec.for_dims(1)
    r = fit(s, (0.5,), spec, explicit_bandwidth=1.0, epsilon=1e-3)
    np.testing.assert_array_equal(r.hazard.times, [0.5, 1.0, 1.5, 2.0])
    slow_h, slow_o = brute_force_estimator(s, spec.eval_point((0.5,)), spec, 1.0, 1e-3)
    np.testing.assert_allclose(r.hazard.hazard.values, slow_h.hazard.values, atol=1e-12)
    np.testing.assert_allclose(r.occupation.values, slow_o.values, atol=1e-12)
    for s_ in (1, 2, 3):
        np.testing.assert_allclose(
            r.hazard.exposure[s_].values, slow_h.exposure[s_].values, atol=1e-12
        )
        assert r.hazard.floor_active[s_] == slow_h.floor_active[s_]


def test_simulate_sample_peak_memory_per_subject():
    # subjects stream into the sample's column buffers, which peak at about
    # 160 B a subject; a list of one tuple per subject peaked at 560 B
    n = 10_000
    sc = default_scenario()
    # a small sample first, so one-off allocations are not counted per subject
    simulate_sample(sc["intensity"], sc["censoring"], 100, 3)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simulate_sample(sc["intensity"], sc["censoring"], n, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 300 * n, f"{peak / n:.0f} B a subject"


def test_default_scenario_shape():
    sc = default_scenario(n=12, seed=99)
    assert sc["n"] == 12
    assert sc["seed"] == 99
    assert sc["intensity"].time_constant
    assert sc["intensity"].state_space.absorbing == frozenset({3})


@pytest.mark.parametrize(
    "rates,needle",
    [
        ({"1->2": "1e308*1e308"}, r"non-finite rate inf for 1->2 at t=0\.0"),
        ({"1->2": "1e308*1e308 - 1e308*1e308"}, r"non-finite rate nan for 1->2 at t=0\.0"),
        ({"1->2": "0*t + 1e308*1e308"}, r"non-finite rate inf for 1->2 at t=0\.0"),
        ({"1->2": "1e308", "1->3": "1e308"}, r"total rate out of state 1 overflows"),
        # the thinning majorant overflows too: it must raise, not stall at s + 0
        ({"1->2": "1e308 + 0*t", "1->3": "1e308"}, r"total rate out of state 1 overflows"),
        ({"1->2": "1/(x1-x1)"}, r"rate 1->2 at t=0\.0: float division by zero"),
        ({"1->2": "exp(1000*(1+x1))"}, r"rate 1->2 at t=0\.0: math range error"),
        ({"1->2": "(x1-2)**0.5"}, r"rate 1->2 at t=0\.0: float\(\) argument"),
    ],
    ids=["inf", "nan", "inf-thinning", "total", "total-thinning", "zero-div", "overflow", "complex"],
)
def test_bad_rate_values_name_the_transition(rates, needle):
    sc = load_scenario(_scenario_dict(rates=rates))
    with pytest.raises(ValueError, match=needle):
        simulate_path(sc["intensity"], sc["censoring"], 1, 0)


def test_nan_rate_rejected_from_any_intensity():
    space = StateSpace((1, 2), frozenset({2}))
    intensity = IntensitySpec(
        kind=MARKOV,
        rate=lambda j, k, t, d, x: math.nan,
        covariate_law=lambda rng: (0.5,),
        state_space=space,
        initial_state=1,
        time_constant=True,
    )
    censoring = lambda rng, x: 1.0
    with pytest.raises(ValueError, match=r"non-finite rate nan for 1->2 at t=0\.0"):
        simulate_path(intensity, censoring, 1, 0)


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_negative_seed_or_index_rejected(seed, index):
    sc = load_scenario(_scenario_dict())
    with pytest.raises(ValueError, match="non-negative"):
        simulate_path(sc["intensity"], sc["censoring"], seed, index)


@pytest.mark.parametrize(
    "law,needle",
    [
        ({"values": [0.0, 1.0], "probs": [0.5, float("nan")]}, "NaN"),
        ({"values": [0.0, 1.0], "probs": [1.5, -0.5]}, "non-negative"),
        ({"values": [0.0, 1.0], "probs": [1.0]}, "2 values but 1 probs"),
        ({"values": [0.0, 1.0], "probs": [0.5, 0.5 + 1e-6]}, "sum to 1"),
        ({"values": [], "probs": []}, "at least one value"),
        ({"values": [0.0, "a"], "probs": [0.5, 0.5]}, "lists of numbers"),
        ({"values": 2, "probs": [0.5, 0.5]}, "lists of numbers"),
        ({"values": [0.0, 1.0]}, "missing field 'probs'"),
    ],
    ids=["nan", "negative", "length", "sum", "empty", "text", "scalar", "missing"],
)
def test_discrete_law_checked_at_load(law, needle):
    raw = _scenario_dict(covariates=[{"law": "discrete", **law}])
    with pytest.raises(ValueError, match=needle):
        load_scenario(raw)


def test_discrete_law_accepts_numpy_slack():
    # numpy's choice accepts probabilities within sqrt(eps) of summing to 1
    raw = _scenario_dict(covariates=[{"law": "discrete", "values": [0, 2], "probs": [0.5, 0.5 - 1e-9]}])
    sc = load_scenario(raw)
    s = simulate_sample(sc["intensity"], sc["censoring"], 40, 2)
    assert {p.covariates for p in s.paths} == {(0.0,), (2.0,)}
