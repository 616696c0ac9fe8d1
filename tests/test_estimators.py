import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from condaalen import stepfun
from condaalen.data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace, ValidationError
from condaalen.estimators import (
    HazardEstimate,
    OccupationEstimate,
    aalen_johansen,
    event_grid,
    fit,
    nelson_aalen,
    product_integral,
)
from condaalen.kernels import (
    KernelSpec,
    NoKernelMass,
    WeightVector,
    bandwidth,
    nw_weights,
)
from condaalen.simulate import default_scenario, simulate_sample
from condaalen.stepfun import StepMatrix


def _two_path_sample():
    # A: 1 -> 2 at t=1, absorbed there; B: censored in state 1 at t=2
    space = StateSpace((1, 2), frozenset({2}))
    a = ObservedPath((0.5,), 1, ((1.0, 2),), 1.0, ABSORBED)
    b = ObservedPath((0.5,), 1, (), 2.0, CENSORED)
    return Sample((a, b), space)


def _weights_at(sample, coord):
    spec = KernelSpec.for_dims(1)
    a = bandwidth(len(sample))
    return nw_weights(sample, spec.eval_point((coord,)), spec, a)


def test_event_grid_contents():
    s = _two_path_sample()
    np.testing.assert_array_equal(event_grid(s), [1.0, 2.0])
    # absorbed end times enter only through the final jump
    space = StateSpace((1, 2), frozenset({2}))
    only = Sample((ObservedPath((0.0,), 1, ((0.7, 2),), 0.7, ABSORBED),), space)
    np.testing.assert_array_equal(event_grid(only), [0.7])


def _half_weights():
    return WeightVector([0.5, 0.5], 1.0)


def test_counts_two_paths():
    s = _two_path_sample()
    counts = nelson_aalen(s, _half_weights(), 1e-4).counts
    np.testing.assert_array_equal(counts.times, [1.0, 2.0])
    assert counts.at(1.0)[0, 1] == 0.5
    assert counts.at(2.0)[0, 1] == 0.5
    assert counts.at(0.9)[0, 1] == 0.0
    assert counts.at(2.0)[1, 0] == 0.0


def test_counts_skip_zero_weight_and_clip():
    space = StateSpace((1, 2), frozenset({2}))
    # a jump recorded past the end of follow-up is refused, not clipped
    late = ObservedPath((0.0,), 1, ((3.0, 2),), 1.0, CENSORED)
    ok = ObservedPath((0.0,), 1, ((0.5, 2),), 0.5, ABSORBED)
    with pytest.raises(ValidationError, match=r"^subject 0: jump at t=3.0 after end_time=1.0$"):
        nelson_aalen(Sample((late, ok), space), _half_weights(), 1e-4)
    censored = ObservedPath((0.0,), 1, (), 1.0, CENSORED)
    counts = nelson_aalen(Sample((censored, ok), space), _half_weights(), 1e-4).counts
    assert counts.values[-1][0, 1] == 0.5


def test_censoring_two_paths():
    # the censored weight is what the flow identity leaves unexplained:
    # initial mass + inflow - outflow - exposure
    s = _two_path_sample()
    h = nelson_aalen(s, _half_weights(), 1e-4)

    def censored(state, t):
        i = h.states.index(state)
        flow = h.counts.at(t)[:, i].sum() - h.counts.at(t)[i, :].sum()
        return h.exposure[state].initial + flow - h.exposure[state](t)

    assert censored(1, 1.0) == 0.0
    assert censored(1, 2.0) == 0.5
    assert censored(2, 2.0) == 0.0
    # B leaves state 1 at t=2 by censoring alone: the exposure drops by its weight
    assert h.exposure[1](1.0) - h.exposure[1](2.0) == 0.5


def test_exposure_two_paths():
    s = _two_path_sample()
    expo = nelson_aalen(s, _half_weights(), 1e-4).exposure
    assert expo[1].initial == 1.0
    np.testing.assert_allclose(expo[1].values, [0.5, 0.0])
    assert expo[2].initial == 0.0
    np.testing.assert_allclose(expo[2].values, [0.5, 0.5])


def test_hazard_two_paths():
    s = _two_path_sample()
    h = nelson_aalen(s, _weights_at(s, 0.5), 1e-4)
    np.testing.assert_array_equal(h.times, [1.0, 2.0])
    np.testing.assert_allclose(h.hazard.at(1.0), [[-0.5, 0.5], [0.0, 0.0]])
    np.testing.assert_allclose(h.hazard.at(2.0), [[-0.5, 0.5], [0.0, 0.0]])
    np.testing.assert_allclose(h.exposure_left(), [[1.0, 0.0], [0.5, 0.5]])
    assert h.floor_active[1] == ()
    assert h.floor_active[2] == (1.0,)


def test_occupation_two_paths():
    s = _two_path_sample()
    r = fit(s, (0.5,), epsilon=1e-4)
    np.testing.assert_allclose(r.occupation.initial, [1.0, 0.0])
    np.testing.assert_allclose(r.occupation.values, [[0.5, 0.5], [0.5, 0.5]])
    # horizon defaults to the largest weighted censoring time
    assert r.theta == 2.0
    assert r.beyond_theta().size == 0


def _floor_sample(n_early=199):
    space = StateSpace((1, 2), frozenset({2}))
    early = [ObservedPath((0.0,), 1, ((0.5, 2),), 0.5, ABSORBED) for _ in range(n_early)]
    late = [ObservedPath((0.0,), 1, ((1.0, 2),), 1.0, ABSORBED)]
    return Sample(tuple(early + late), space)


def test_hazard_floor_engages():
    s = _floor_sample()
    r = fit(s, (0.0,), explicit_bandwidth=1.0, epsilon=0.01)
    inc = r.hazard.hazard.increments()
    # left exposure 0.005 sits under the floor 0.01, so the increment halves
    assert inc[1][0, 1] == pytest.approx(0.5, abs=1e-12)
    assert inc[0][0, 1] == pytest.approx(0.995, abs=1e-12)
    assert r.hazard.floor_active[1] == (1.0,)
    assert r.hazard.floor_active[2] == (0.5,)


def test_hazard_epsilon_monotone():
    s = _floor_sample()
    small = fit(s, (0.0,), explicit_bandwidth=1.0, epsilon=1e-4)
    large = fit(s, (0.0,), explicit_bandwidth=1.0, epsilon=0.01)
    assert small.hazard.hazard.values[-1][0, 1] == pytest.approx(1.995, abs=1e-12)
    off = ~np.eye(2, dtype=bool)
    gap = small.hazard.hazard.values[:, off] - large.hazard.hazard.values[:, off]
    assert np.all(gap >= -1e-15)


def test_nelson_aalen_peak_memory(sweep):
    # at the benchmark's sweep size (m = 31,818) the dense pass over every
    # row and cell peaked at 4.6 float arrays of shape (m, S, S): bound 5
    sample = sweep.sample(20000, 5)
    m, size = len(sample.table.grid), len(sample.state_space.states)
    bound = 5 * m * size * size * 8
    for x in sweep.points:
        weights = fit(sample, x, sweep.spec).weights
        tracemalloc.start()
        try:
            nelson_aalen(sample, weights, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (x, peak / (m * size * size * 8))


def test_aalen_johansen_peak_memory(sweep):
    # the pass over every grid row built (m, S, S) arrays and peaked at 1.83 of
    # them at this point; reading only the rows where the hazard moves, 1.24
    sample = sweep.sample(20000, 5)
    m, size = len(sample.table.grid), len(sample.state_space.states)
    hazard = fit(sample, sweep.points[12], sweep.spec).hazard
    initial = hazard.initial_exposure()
    tracemalloc.start()
    try:
        aalen_johansen(hazard, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m * size * size * 8, peak / (m * size * size * 8)


def test_fit_keeps_its_quantities_on_their_knots():
    # 400 of the 2,000 subjects carry weight here, and the hazard has 636 knots
    # for the 3,134 grid rows: a fit kept 628 KB with each quantity dense on the
    # grid, and keeps 177 KB on the knots
    sc = default_scenario(n=2000, seed=3)
    sample = simulate_sample(sc["intensity"], sc["censoring"], 2000, 3)
    sample.table  # noqa: B018 -- built before the count starts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = fit(sample, (0.5,), explicit_bandwidth=0.1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
        quantities = [r.hazard.hazard, r.hazard.counts, r.occupation, *r.hazard.exposure.values()]
        for q in quantities:
            assert q.values.shape[0] == len(sample.table.grid)
        gc.collect()
        # the dense views are spread anew at each read, never kept
        after_reads = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 300_000, kept
    assert abs(after_reads - kept) < 1024, after_reads - kept


def test_fit_keeps_its_hazard_and_counts_on_their_jump_rows_and_cells():
    # the hazard moves on 525 of the 636 live rows, in 6 of its 9 cells, and the
    # counts in 3: a fit kept 177 KB with both on every live row and cell, and
    # keeps 124 KB on their jump rows and stored cells
    sc = default_scenario(n=2000, seed=3)
    sample = simulate_sample(sc["intensity"], sc["censoring"], 2000, 3)
    sample.table  # noqa: B018 -- built before the count starts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = fit(sample, (0.5,), explicit_bandwidth=0.1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 140_000, kept


def test_fit_keeps_no_array_of_the_grids_length():
    # the knots' start rows replace an int32 index per grid row: the exposures
    # have 636 starts and the hazard, counts and occupation share 526, for the
    # 3,134 grid rows: a fit kept 124 KB with the two indexes and keeps 101 KB
    sc = default_scenario(n=2000, seed=3)
    sample = simulate_sample(sc["intensity"], sc["censoring"], 2000, 3)
    sample.table  # noqa: B018 -- built before the count starts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = fit(sample, (0.5,), explicit_bandwidth=0.1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert r.hazard.hazard._starts is r.occupation._starts
    assert kept <= 110_000, kept


def test_an_occupation_curve_of_an_unknown_state_names_the_states(sim_sample):
    occupation = fit(sim_sample, (0.5,)).occupation
    assert occupation.curve(2).initial == occupation.initial[1]
    with pytest.raises(ValueError, match=r"no state 7 among the states \(1, 2, 3\)"):
        occupation.curve(7)


@pytest.mark.parametrize("length", [2, 4])
def test_aalen_johansen_rejects_initial_of_wrong_length(sim_sample, length):
    hazard = fit(sim_sample, (0.5,)).hazard
    assert len(hazard.states) == 3
    with pytest.raises(ValueError, match=rf"length 3.*shape \({length},\)"):
        aalen_johansen(hazard, np.full(length, 1.0 / length))


def test_nelson_aalen_checks_its_grid_once(sim_sample, monkeypatch):
    checked = []
    as_times = stepfun._as_times

    def counting(times):
        if not isinstance(times, stepfun._Checked):
            checked.append(len(times))
        return as_times(times)

    monkeypatch.setattr(stepfun, "_as_times", counting)
    weights = fit(sim_sample, (0.5,)).weights
    checked.clear()
    hazard = nelson_aalen(sim_sample, weights, 1e-4)
    assert checked == [len(hazard.times)]
    # a grid a caller passes is still checked
    with pytest.raises(ValueError, match="strictly increasing"):
        StepMatrix([1.0, 1.0], np.zeros((2, 3, 3)))


def test_hazard_rejects_bad_epsilon():
    s = _two_path_sample()
    with pytest.raises(ValueError):
        nelson_aalen(s, _weights_at(s, 0.5), 0.0)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, -1e-4])
def test_hazard_rejects_non_finite_epsilon(epsilon):
    s = _two_path_sample()
    # an infinite floor would zero every hazard increment without a word
    with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
        nelson_aalen(s, _weights_at(s, 0.5), epsilon)
    with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
        fit(s, (0.5,), epsilon=epsilon)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -1.0])
def test_fit_rejects_bad_theta(theta):
    s = _two_path_sample()
    # a NaN horizon flags no time and a negative one flags every time
    with pytest.raises(ValueError, match="theta must be a finite number >= 0"):
        fit(s, (0.5,), theta=theta)


def test_fit_accepts_zero_theta():
    r = fit(_two_path_sample(), (0.5,), theta=0.0)
    assert r.theta == 0.0
    np.testing.assert_array_equal(r.beyond_theta(), [1.0, 2.0])


def test_fit_raises_without_kernel_mass():
    s = _two_path_sample()
    with pytest.raises(NoKernelMass, match="9.0"):
        fit(s, (9.0,), explicit_bandwidth=0.5)


@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf])
def test_fit_rejects_non_finite_x(coord):
    # bad input, not the "no kernel mass" subclass of ValueError
    with pytest.raises(ValueError, match="non-finite coordinate") as info:
        fit(_two_path_sample(), (coord,))
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "value, shown", [(math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0"), (-0.2, "-0.2")]
)
def test_fit_rejects_bad_explicit_bandwidth(value, shown):
    # an infinite bandwidth must not surface as a false "no kernel mass"
    message = f"explicit bandwidth must be a finite number > 0, got {shown}$"
    with pytest.raises(ValueError, match=message) as info:
        fit(_two_path_sample(), (0.5,), explicit_bandwidth=value)
    assert not isinstance(info.value, NoKernelMass)
    with pytest.raises(ValueError, match=message):
        bandwidth(2, explicit=value)


def test_product_integral_empty_interval_is_identity():
    h = StepMatrix(np.array([1.0]), np.array([[[-0.5, 0.5], [0.0, 0.0]]]))
    np.testing.assert_array_equal(product_integral(h, 0.0, 0.5), np.eye(2))
    np.testing.assert_array_equal(product_integral(h, 1.0, 2.0), np.eye(2))
    np.testing.assert_array_equal(product_integral(h, 0.3, 0.3), np.eye(2))


def test_product_integral_single_step():
    h = StepMatrix(np.array([1.0]), np.array([[[-0.5, 0.5], [0.0, 0.0]]]))
    np.testing.assert_allclose(product_integral(h, 0.0, 1.0), [[0.5, 0.5], [0.0, 1.0]])
    np.testing.assert_allclose(product_integral(h, 0.5, 5.0), [[0.5, 0.5], [0.0, 1.0]])


def test_product_integral_rejects_reversed_interval():
    h = StepMatrix(np.array([1.0]), np.array([[[-0.5, 0.5], [0.0, 0.0]]]))
    with pytest.raises(ValueError):
        product_integral(h, 2.0, 1.0)


def test_product_integral_converges_to_exponential():
    q = np.array([[-0.9, 0.6, 0.3], [0.2, -0.7, 0.5], [0.0, 0.0, 0.0]])
    grid = np.linspace(1e-3, 1.0, 1000)
    cumulative = StepMatrix(grid, grid[:, None, None] * q)
    got = product_integral(cumulative, 0.0, 1.0)
    np.testing.assert_allclose(got, expm(q), atol=1e-3)


def test_aalen_johansen_matches_product_integral(sim_sample):
    r = fit(sim_sample, (0.5,))
    h = r.hazard
    for t in h.times[:: max(1, len(h.times) // 17)]:
        direct = r.occupation.initial @ product_integral(h.hazard, 0.0, t)
        idx = int(np.searchsorted(h.times, t))
        np.testing.assert_allclose(r.occupation.values[idx], direct, atol=1e-12)


def test_aalen_johansen_conserves_mass(sim_sample):
    for x in (0.2, 0.5, 0.8):
        r = fit(sim_sample, (x,))
        total = r.occupation.values.sum(axis=1)
        np.testing.assert_allclose(total, r.occupation.initial.sum(), atol=1e-12)


def test_occupation_values_stay_in_unit_interval(sim_sample):
    r = fit(sim_sample, (0.5,))
    assert np.all(r.occupation.values >= -1e-12)
    assert np.all(r.occupation.values <= 1.0 + 1e-12)


def test_occupation_curve_accessor():
    s = _two_path_sample()
    r = fit(s, (0.5,))
    c = r.occupation.curve(2)
    assert c(0.5) == 0.0
    assert c(1.0) == pytest.approx(0.5)
    assert set(r.occupation.curves) == {1, 2}


def test_exposure_identity_against_direct_scan(sim_sample):
    r = fit(sim_sample, (0.4,))
    h = r.hazard
    w = r.weights.weights
    states = h.states
    grid = h.times
    for i, s in enumerate(states):
        for t in grid[:: max(1, len(grid) // 23)]:
            direct = sum(
                wl
                for wl, p in zip(w, sim_sample.paths)
                if p.state_at(t) == s
                and (p.end_reason == ABSORBED or t < p.end_time)
            )
            assert h.exposure[s](t) == pytest.approx(direct, abs=1e-12)
            direct_left = sum(
                wl
                for wl, p in zip(w, sim_sample.paths)
                if p.state_before(t) == s
                and (p.end_reason == ABSORBED or t <= p.end_time)
            )
            idx = int(np.searchsorted(grid, t))
            assert h.exposure_left()[idx, i] == pytest.approx(direct_left, abs=1e-12)


def test_fit_theta_override_flags_tail(sim_sample):
    r = fit(sim_sample, (0.5,), theta=1.0)
    assert r.theta == 1.0
    np.testing.assert_array_equal(r.beyond_theta(), r.hazard.times[r.hazard.times > 1.0])


def test_hazard_diagonal_is_negative_row_sum(sim_sample):
    r = fit(sim_sample, (0.6,))
    vals = r.hazard.hazard.values
    np.testing.assert_allclose(vals.sum(axis=2), 0.0, atol=1e-12)
    off = vals.copy()
    idx = np.arange(vals.shape[1])
    off[:, idx, idx] = 0.0
    assert np.all(off >= 0.0)
    # off-diagonal entries are nondecreasing in time
    assert np.all(np.diff(off, axis=0) >= -1e-15)


def test_occupation_estimate_checks_its_shapes():
    states = (1, 2)
    good = dict(times=[1.0, 2.0], values=np.full((2, 2), 0.5), initial=[1.0, 0.0])
    OccupationEstimate(**good, states=states)
    bad = [
        (dict(good, values=np.full((3, 2), 0.5)), "shape"),  # 3 rows on 2 times
        (dict(good, values=np.full((2, 3), 0.5)), "shape"),  # 3 columns for 2 states
        (dict(good, initial=[1.0, 0.0, 0.0]), "one value per state"),
        (dict(good, times=[2.0, 1.0]), "strictly increasing"),
    ]
    for fields, message in bad:
        with pytest.raises(ValueError, match=message):
            OccupationEstimate(**fields, states=states)
