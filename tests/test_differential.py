"""Array estimators and CLI writers against literal references on small samples.

Times come from a coarse lattice, so jumps of different subjects coincide
with each other and with censoring times. Covariates come from a small
set that includes a declared atom and a value far outside every kernel
window, and the floor is sometimes large enough to engage.
"""

import csv
import json
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaalen import cli
from condaalen.covariance import (
    influence_gamma,
    influence_zeta,
    occupation_covariance,
    zeta_values,
)
from condaalen.data import (
    ABSORBED,
    CENSORED,
    ObservedPath,
    Sample,
    StateSpace,
    load_sample,
    write_sample,
)
from condaalen.estimators import (
    HazardEstimate,
    OccupationEstimate,
    _slice_sum,
    aalen_johansen,
    fit,
    nelson_aalen,
)
from condaalen.kernels import KernelSpec, WeightVector, nw_weights
from condaalen.simulate import brute_force_estimator, default_scenario, simulate_sample
from condaalen.stepfun import StepCurve, StepMatrix

SPACE = StateSpace((1, 2, 3), frozenset({3}))
TICK = 0.25
ATOM = 1.0
FAR = 9.0  # outside every kernel window drawn below
# A floored zero-weight jump gives terms near sqrt(phi) / epsilon ~ 1e4,
# where one ulp exceeds 1e-12, so the bound is relative there.
CLOSE = dict(rtol=1e-12, atol=1e-12)


@st.composite
def paths(draw, dim):
    covariates = tuple(draw(st.sampled_from((0.0, 0.25, 0.5, ATOM, FAR))) for _ in range(dim))
    ticks = sorted(draw(st.sets(st.integers(1, 10), max_size=3)))
    state = draw(st.sampled_from((1, 2)))
    initial, jumps = state, []
    for tick in ticks:
        state = draw(st.sampled_from([s for s in SPACE.states if s != state]))
        jumps.append((tick * TICK, state))
        if state == 3:
            return ObservedPath(covariates, initial, tuple(jumps), tick * TICK, ABSORBED)
    last = ticks[-1] if ticks else 1
    end = draw(st.integers(last, 12)) * TICK
    return ObservedPath(covariates, initial, tuple(jumps), end, CENSORED)


@st.composite
def fits(draw):
    dim = draw(st.integers(1, 2))
    sample = Sample(tuple(draw(st.lists(paths(dim), min_size=1, max_size=12))), SPACE)
    sample.table  # noqa: B018 -- the path rules hold
    kernel = draw(st.sampled_from(("epanechnikov", "triangular", "uniform")))
    atoms = tuple(() for _ in range(dim - 1)) + ((ATOM,),)
    spec = KernelSpec.for_dims(dim, kernel=kernel, atoms=atoms)
    # subject 0's covariates always carry kernel mass
    x = spec.eval_point(sample.paths[0].covariates)
    bandwidth = draw(st.sampled_from((0.3, 0.7, 2.0)))
    epsilon = draw(st.sampled_from((1e-4, 0.07, 0.3)))
    return sample, spec, x, bandwidth, epsilon


@given(fits())
@settings(max_examples=100, deadline=None)
def test_fit_matches_brute_force(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    slow_h, slow_o = brute_force_estimator(sample, x, spec, bandwidth, epsilon)
    np.testing.assert_array_equal(r.hazard.times, slow_h.times)
    np.testing.assert_allclose(r.hazard.hazard.values, slow_h.hazard.values, **CLOSE)
    np.testing.assert_allclose(r.hazard.counts.values, slow_h.counts.values, **CLOSE)
    np.testing.assert_allclose(r.occupation.initial, slow_o.initial, **CLOSE)
    np.testing.assert_allclose(r.occupation.values, slow_o.values, **CLOSE)
    left = r.hazard.exposure_left()
    for i, s in enumerate(r.hazard.states):
        np.testing.assert_allclose(r.hazard.exposure[s].values, slow_h.exposure[s].values, **CLOSE)
        # floor decisions may differ only where the exposure sits on the floor
        for t in set(r.hazard.floor_active[s]) ^ set(slow_h.floor_active[s]):
            pos = int(np.searchsorted(r.hazard.times, t))
            assert abs(left[pos, i] - epsilon) <= 1e-12


@given(fits())
@settings(max_examples=60, deadline=None)
def test_zeta_values_match_influence_zeta(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    times = r.hazard.times
    eval_times = np.concatenate([[0.0], times, times + TICK / 2])
    states = r.hazard.states
    pairs = [(a, b) for a in states for b in states if a != b]
    blocks = {pair: zeta_values(sample, r.hazard, r.phi, pair, eval_times) for pair in pairs}
    for subject in range(len(sample)):
        curves = influence_zeta(sample, r.hazard, r.phi, subject)
        for pair in pairs:
            np.testing.assert_allclose(blocks[pair][subject], curves[pair](eval_times), **CLOSE)


@given(fits())
@settings(max_examples=60, deadline=None)
def test_occupation_covariance_matches_per_subject_gram(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    times = r.hazard.times
    grid = np.concatenate([[0.0], times, times + TICK / 2])
    states = r.hazard.states
    rows = np.empty((len(sample), grid.size, len(states)))
    for subject in range(len(sample)):
        zeta = influence_zeta(sample, r.hazard, r.phi, subject)
        curves = influence_gamma(r.hazard, r.occupation, zeta)
        for i, s in enumerate(states):
            rows[subject, :, i] = curves[s](grid)
    w = r.weights.weights
    surfaces = occupation_covariance(sample, r.weights, r.hazard, r.occupation, r.phi, grid)
    for i, s in enumerate(states):
        literal = (rows[:, :, i] * w[:, None]).T @ rows[:, :, i]
        np.testing.assert_array_equal(surfaces[s].values, surfaces[s].values.T)
        # Rows within CLOSE of the literal ones move the Gram by up to about
        # 1e-12 * (sum(w) + its largest entry); the sum keeps the bound
        # above zero where every subject's influence cancels exactly.
        atol = 1e-12 * (w.sum() + np.abs(literal).max())
        np.testing.assert_allclose(surfaces[s].values, literal, rtol=1e-12, atol=atol)


def _same_bits(a, b):
    """Equal shapes and equal bits, so 0.0 and -0.0 differ and NaN equals NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _stepwise_occupation(hazard, initial):
    """The recursion one grid step at a time, skipping steps with dA = 0."""
    inc = hazard.hazard.increments()
    values = np.empty((len(hazard.times), initial.size))
    p = initial.copy()
    for i in range(len(hazard.times)):
        step = inc[i]
        if step.any():
            p = p + p @ step
        values[i] = p
    return values


@given(fits())
@settings(max_examples=100, deadline=None)
def test_aalen_johansen_matches_stepwise_recursion(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    initial = r.hazard.initial_exposure()
    occ = aalen_johansen(r.hazard, initial)
    assert _same_bits(occ.values, _stepwise_occupation(r.hazard, initial))


def _hazard(cumulative):
    """Hazard estimate with these cumulative values on times 1, 2, ..."""
    cumulative = np.asarray(cumulative, dtype=float).reshape(-1, 3, 3)
    times = np.arange(1.0, len(cumulative) + 1.0)
    counts = StepMatrix(times, np.zeros_like(cumulative))
    return HazardEstimate(StepMatrix(times, cumulative), 1e-4, {}, counts, {}, SPACE.states)


def _generator_steps(rates):
    """Hazard estimate whose increments are generators with these off-diagonal rates."""
    inc = np.array(rates, dtype=float).reshape(-1, 3, 3)
    diag = np.arange(3)
    inc[:, diag, diag] = -inc.sum(axis=2)
    return _hazard(np.cumsum(inc, axis=0))


LIVE = [[0.0, 0.2, 0.1], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]  # two source rows: a tie
FROM_1 = [[0.0, 0.2, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]  # one source, two targets
FROM_2 = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]
FROM_3 = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
DEAD = np.zeros((3, 3))
START = np.array([0.6, 0.3, 0.1])


@pytest.mark.parametrize(
    "steps,initial",
    [
        ([DEAD] * 4, START),  # nothing moves: the occupation stays at initial
        ([DEAD, DEAD, LIVE, DEAD, LIVE], START),  # leading zero steps
        ([DEAD, DEAD, DEAD, LIVE], START),  # only the last step is live
        ([LIVE, LIVE, DEAD, LIVE], START),
        ([FROM_1, FROM_2, DEAD, FROM_1, FROM_3, FROM_2], START),
        ([FROM_2, FROM_1, LIVE, FROM_3, FROM_1], START),
        # state 2 is empty when its row moves: p_j = 0
        ([FROM_3, FROM_2, FROM_1, FROM_2], np.array([0.7, 0.0, 0.3])),
        # a -0.0 entry stays until the first live step, which leaves it +0.0
        ([DEAD, FROM_3, DEAD, FROM_1], np.array([0.6, -0.0, 0.4])),
        ([DEAD] * 3, np.array([0.6, -0.0, 0.4])),
    ],
    ids=["all-zero", "leading-zero", "live-last", "mixed", "single-source",
         "single-and-tie", "empty-source", "negative-zero", "negative-zero-dead"],
)  # fmt: skip
def test_aalen_johansen_hand_cases(steps, initial):
    hazard = _generator_steps(steps)
    occ = aalen_johansen(hazard, initial)
    expected = _stepwise_occupation(hazard, initial)
    assert _same_bits(occ.values, expected)
    live = [i for i, step in enumerate(steps) if np.any(step)]
    first = live[0] if live else len(steps)
    assert _same_bits(occ.values[:first], np.tile(initial, (first, 1)))


def test_aalen_johansen_zero_diagonal_increment():
    # the 1->2 rate is too small to move the diagonal's cumulative value, so the
    # live step at time 2 has dA_12 > 0 but dA_11 = 0
    rest = [[0.0] * 3, [0.0] * 3]
    hazard = _hazard([[[-0.5, 0.0, 0.5], *rest], [[-0.5, 1e-20, 0.5], *rest]])
    inc = hazard.hazard.increments()
    assert inc[1, 0, 0] == 0.0 and inc[1, 0, 1] > 0.0
    initial = np.array([0.6, 0.0, 0.4])
    occ = aalen_johansen(hazard, initial)
    assert _same_bits(occ.values, _stepwise_occupation(hazard, initial))
    assert occ.values[0, 1] == 0.0 < occ.values[1, 1]


def test_aalen_johansen_empty_grid():
    hazard = _generator_steps(np.zeros((0, 3, 3)))
    occ = aalen_johansen(hazard, np.array([1.0, 0.0, 0.0]))
    assert occ.values.shape == (0, 3)


# --- aalen_johansen on the recorded rows against the derived ones ---------


def _assert_occupation_bits(hazard, initial, occupation=None):
    """The recorded rows, the rows derived from the increments and the walk agree."""
    want = _stepwise_occupation(hazard, initial)
    derived = replace(hazard, hazard=replace(hazard.hazard))
    assert set(derived.hazard._rows.tolist()) <= set(hazard.hazard._rows.tolist())
    assert _same_bits(aalen_johansen(hazard, initial).values, want)
    assert _same_bits(aalen_johansen(derived, initial).values, want)
    if occupation is not None:
        assert _same_bits(occupation.values, want)


@given(fits())
@settings(max_examples=100, deadline=None)
def test_fit_occupation_matches_derived_rows_and_stepwise_recursion(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    _assert_occupation_bits(r.hazard, r.hazard.initial_exposure(), r.occupation)


def test_fit_occupation_matches_derived_rows_on_the_sweep_sample(sweep):
    sample = sweep.sample(20000, 5)
    m = len(sample.table.grid)
    for x in sweep.points:
        r = fit(sample, x, sweep.spec)
        assert r.hazard.hazard._rows.size < 0.5 * m  # the atom leaves most rows still
        _assert_occupation_bits(r.hazard, r.hazard.initial_exposure(), r.occupation)


def test_a_copy_with_another_hazard_reads_that_hazards_rows():
    sc = default_scenario(n=400, seed=3)
    sample = simulate_sample(sc["intensity"], sc["censoring"], 400, 3)
    a, b = (fit(sample, (x,), explicit_bandwidth=0.1).hazard for x in (0.1, 0.9))
    copy = replace(a, hazard=b.hazard)
    initial = a.initial_exposure()
    assert _same_bits(aalen_johansen(copy, initial).values, _stepwise_occupation(copy, initial))
    # a's hazard moves on 110 rows, b's on 98
    assert [h.hazard._rows.size for h in (a, b)] == [110, 98]


# --- step functions on their knots against their dense twins ---------------


def _twins(r):
    """Each fitted quantity with a hand-built twin made from its dense ``values``."""
    h, occ = r.hazard, r.occupation
    grid = h.times
    pairs = [(q, StepMatrix(grid, q.values, q.initial)) for q in (h.hazard, h.counts)]
    pairs += [(c, StepCurve(grid, c.values, c.initial)) for c in h.exposure.values()]
    pairs += [
        (occ.curve(s), StepCurve(grid, occ.values[:, i], float(occ.initial[i])))
        for i, s in enumerate(occ.states)
    ]
    return pairs


@given(fits())
@settings(max_examples=60, deadline=None)
def test_lookups_on_the_knots_match_the_dense_twins(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    grid = r.hazard.times
    # at 0, at every grid time, between grid times and past the end
    times = np.concatenate([[0.0], grid, (grid[:-1] + grid[1:]) / 2, [grid[-1] + 1.0]])
    for knotted, twin in _twins(r):
        lookups = ("at", "left") if isinstance(twin, StepMatrix) else ("__call__", "left")
        for q in (knotted, replace(knotted)):
            assert _same_bits(q.values, twin.values)
            assert _same_bits(q.increments(), twin.increments())
            for name in lookups:
                want = np.array([getattr(twin, name)(t) for t in times.tolist()])
                assert _same_bits(getattr(q, name)(times), want), name
                assert all(
                    _same_bits(getattr(q, name)(t), w) for t, w in zip(times.tolist(), want)
                ), name
    copy = replace(r.occupation)
    assert _same_bits(copy.values, r.occupation.values)
    assert _same_bits(copy.initial, r.occupation.initial) and copy.states == r.occupation.states


def _literal_twins(sample, r):
    """Each fitted quantity with a twin built from the literal references alone."""
    lit = _literal_nelson_aalen(sample, r.weights.weights, r.hazard.epsilon)
    initial = lit.initial_exposure()
    occupation = _stepwise_occupation(lit, initial)
    assert _same_bits(r.occupation.values, occupation)
    assert _same_bits(r.occupation.initial, initial)
    pairs = [(r.hazard.hazard, lit.hazard), (r.hazard.counts, lit.counts)]
    pairs += [(r.hazard.exposure[s], lit.exposure[s]) for s in lit.states]
    pairs += [
        (r.occupation.curve(s), StepCurve(lit.times, occupation[:, i], initial[i]))
        for i, s in enumerate(lit.states)
    ]
    return pairs


@given(fits())
@settings(max_examples=60, deadline=None)
def test_dense_views_and_lookups_match_the_literal_references(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    grid = r.hazard.times
    # at 0, at every grid time, between grid times and past the end
    times = np.concatenate([[0.0], grid, (grid[:-1] + grid[1:]) / 2, [grid[-1] + 1.0]])
    for got, want in _literal_twins(sample, r):
        dense = want.values
        assert _same_bits(got.values, dense)
        call = "at" if isinstance(want, StepMatrix) else "__call__"
        # the row held at t: the last grid time at or before it, or before it for left
        for name, held in ((call, bisect_right), ("left", bisect_left)):
            rows = [held(grid.tolist(), t) - 1 for t in times.tolist()]
            expect = [dense[i] if i >= 0 else want.initial for i in rows]
            assert _same_bits(getattr(got, name)(times), np.array(expect)), name
            assert all(
                _same_bits(getattr(got, name)(t), e) for t, e in zip(times.tolist(), expect)
            ), name


def _na(paths, weights):
    """``nelson_aalen`` under hand-set weights; ``fit`` hands its result on the same way."""
    sample = Sample(tuple(paths), SPACE)
    return nelson_aalen(sample, WeightVector(weights, 1.0), 1e-4)


def test_occupation_bits_with_a_censoring_only_row():
    # grid 0.5, 1.0, 1.5, 2.0: nobody jumps at 1.0 or 2.0, subjects are censored there
    hazard = _na(
        [
            ObservedPath((0.5,), 1, ((0.5, 2),), 2.0, CENSORED),
            ObservedPath((0.5,), 1, (), 1.0, CENSORED),
            ObservedPath((0.5,), 2, ((1.5, 3),), 1.5, ABSORBED),
        ],
        [0.3, 0.5, 0.2],
    )
    assert hazard.hazard._rows.tolist() == [0, 2]
    assert hazard.exposure[1].values[1] != hazard.exposure[1].values[0]
    _assert_occupation_bits(hazard, hazard.initial_exposure())


def test_occupation_bits_when_grid_row_0_moves_with_negative_zero_diagonals():
    hazard = _na(
        [
            ObservedPath((0.5,), 1, ((0.25, 3),), 0.25, ABSORBED),
            ObservedPath((0.5,), 1, ((0.75, 2),), 1.0, CENSORED),
            ObservedPath((0.5,), 2, (), 0.5, CENSORED),
        ],
        [0.5, 0.3, 0.2],
    )
    assert hazard.hazard._rows[0] == 0
    # only state 1 leaves at row 0: the diagonals of states 2 and 3 are -0.0
    diag = hazard.hazard.values[0].diagonal()
    assert _same_bits(diag[1:], [-0.0, -0.0]) and diag[0] < 0.0
    for initial in (hazard.initial_exposure(), np.array([0.6, -0.0, 0.4])):
        _assert_occupation_bits(hazard, initial)


def test_occupation_bits_with_a_tie_across_source_states():
    hazard = _na(
        [
            ObservedPath((0.5,), 1, ((0.5, 2),), 1.0, CENSORED),
            ObservedPath((0.5,), 2, ((0.5, 3),), 0.5, ABSORBED),
            ObservedPath((0.5,), 1, ((0.25, 2), (0.75, 3)), 0.75, ABSORBED),
            ObservedPath((0.5,), 2, (), 1.25, CENSORED),
        ],
        [0.4, 0.3, 0.2, 0.1],
    )
    inc = hazard.hazard.increments()
    row = int(np.searchsorted(hazard.times, 0.5))
    assert np.count_nonzero(inc[row].any(axis=1)) == 2  # two source states at one time
    _assert_occupation_bits(hazard, hazard.initial_exposure())


def test_occupation_bits_when_the_diagonal_increment_rounds_to_zero():
    # at t = 0.5 a weight of 1e-20 leaves state 1 for 2: dA_12 > 0, but the
    # diagonal's cumulative value -0.5 does not move
    hazard = _na(
        [
            ObservedPath((0.5,), 1, ((0.25, 3),), 0.25, ABSORBED),
            ObservedPath((0.5,), 1, (), 2.0, CENSORED),
            ObservedPath((0.5,), 1, ((0.5, 2),), 1.0, CENSORED),
        ],
        [0.5, 0.5, 1e-20],
    )
    inc = hazard.hazard.increments()
    assert inc[1, 0, 0] == 0.0 < inc[1, 0, 1]
    assert hazard.hazard._rows.tolist() == [0, 1]
    _assert_occupation_bits(hazard, hazard.initial_exposure())


# --- nelson_aalen against the step-by-step helper chain --------------------


def _literal_nelson_aalen(sample, w, epsilon):
    """Counts, then censoring curves, then exposure curves, then the hazard."""
    tab = sample.table
    states = sample.state_space.states
    grid = tab.grid
    m, size = len(grid), len(states)

    cell = (tab.pos * size + tab.src) * size + tab.dst
    inc = np.bincount(cell, weights=w[tab.subj], minlength=m * size * size)
    counts = StepMatrix(grid, np.cumsum(inc.reshape(m, size, size), axis=0))

    cell = tab.end_pos[tab.censored] * size + tab.final[tab.censored]
    inc = np.bincount(cell, weights=w[tab.censored], minlength=m * size)
    cum = np.cumsum(inc.reshape(m, size), axis=0)
    censoring = {s: StepCurve(grid, cum[:, i], 0.0) for i, s in enumerate(states)}

    initial = np.bincount(tab.init, weights=w, minlength=size)
    d_counts = counts.increments()
    inflow, outflow = d_counts.sum(axis=1), d_counts.sum(axis=2)
    exposure = {}
    for i, s in enumerate(states):
        d_expo = inflow[:, i] - outflow[:, i] - censoring[s].increments()
        exposure[s] = StepCurve(grid, initial[i] + np.cumsum(d_expo), float(initial[i]))

    values = np.column_stack([exposure[s].values for s in states])
    expo_left = np.vstack([initial, values])[:-1]
    d_hazard = counts.increments() / np.maximum(expo_left, epsilon)[:, :, None]
    diag = np.arange(size)
    d_hazard[:, diag, diag] = 0.0
    d_hazard[:, diag, diag] = -d_hazard.sum(axis=2)
    floor_active = {s: tuple(grid[expo_left[:, i] < epsilon]) for i, s in enumerate(states)}
    return HazardEstimate(
        StepMatrix(grid, np.cumsum(d_hazard, axis=0)),
        float(epsilon),
        exposure,
        counts,
        floor_active,
        states,
    )


def _assert_hazard_bits(sample, weights, epsilon):
    got = nelson_aalen(sample, weights, epsilon)
    want = _literal_nelson_aalen(sample, weights.weights, epsilon)
    assert _same_bits(got.hazard.values, want.hazard.values)
    assert _same_bits(got.counts.values, want.counts.values)
    assert _same_bits(got.exposure_left(), want.exposure_left())
    assert got.states == want.states and got.epsilon == want.epsilon
    for s in want.states:
        assert _same_bits(got.exposure[s].values, want.exposure[s].values)
        assert _same_bits(got.exposure[s].initial, want.exposure[s].initial)
        assert isinstance(got.exposure[s].initial, float)
        assert _same_bits(got.floor_active[s], want.floor_active[s])


@given(fits())
@settings(max_examples=100, deadline=None)
def test_nelson_aalen_matches_helper_chain(case):
    sample, spec, x, bandwidth, epsilon = case
    _assert_hazard_bits(sample, nw_weights(sample, x, spec, bandwidth), epsilon)


@pytest.mark.parametrize("size", [3, 7, 8, 12])
@pytest.mark.parametrize("axis", [1, 2])
def test_slice_sum_matches_numpy_sum_bits(axis, size):
    rng = np.random.default_rng(7)
    shape = (20000 * 9 // size**2, size, size)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    cell = rng.random(a.shape)
    a[cell < 0.3] = 0.0
    a[(0.3 <= cell) & (cell < 0.5)] = -0.0  # all-signed-zero sums come out +0.0
    assert _same_bits(_slice_sum(a, axis), a.sum(axis=axis))


@pytest.fixture(scope="module")
def default_3000():
    sc = default_scenario(n=3000, seed=11)
    return simulate_sample(sc["intensity"], sc["censoring"], 3000, 11)


@pytest.mark.parametrize("epsilon", [1e-4, 0.05])
@pytest.mark.parametrize("coord", [0.1, 0.5, 0.9])
def test_nelson_aalen_matches_helper_chain_at_n3000(default_3000, coord, epsilon):
    weights = fit(default_3000, (coord,), epsilon=epsilon).weights
    _assert_hazard_bits(default_3000, weights, epsilon)


@pytest.mark.parametrize("size", [3, 8, 12])
def test_slice_sum_keeps_numpy_order_on_any_layout(size):
    # _outflow hands it transposed views; at 8 or more states numpy sums a
    # C-ordered row in pairwise blocks and a column-ordered one entry by entry
    rng = np.random.default_rng(11)
    a = rng.standard_normal((500, 4, size)) * 10.0 ** rng.integers(-20, 20, (500, 4, size))
    view = np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
    assert not view.flags.c_contiguous
    assert _same_bits(_slice_sum(view, 2), a.sum(axis=2))


# --- the live-row pass at its edges --------------------------------------

NINE = StateSpace(tuple(range(1, 10)), frozenset())


def _nine_state_sample(seed, n=400):
    """Reversible nine-state paths on the tick grid, so transitions tie."""
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n):
        state = initial = int(rng.integers(1, 10))
        jumps = []
        for tick in sorted(rng.choice(np.arange(1, 9), size=rng.integers(0, 4), replace=False)):
            state = int(rng.choice([s for s in NINE.states if s != state]))
            jumps.append((tick * TICK, state))
        last = round(jumps[-1][0] / TICK) if jumps else 1
        end = int(rng.integers(last, 11)) * TICK
        covariates = (float(rng.choice((0.0, 0.25, 0.5, FAR))),)
        paths.append(ObservedPath(covariates, initial, tuple(jumps), end, CENSORED))
    return Sample(tuple(paths), NINE)


def _sequential_row_sums(a):
    total = 0.0
    for part in np.moveaxis(a, 2, 0):
        total = total + part
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nelson_aalen_bits_with_nine_states(seed):
    sample = _nine_state_sample(seed)
    weights = nw_weights(sample, (0.25,), KernelSpec.for_dims(1), 0.4)
    tab = sample.table
    weighted = weights.weights[tab.subj] != 0.0
    moves = np.unique(np.stack([tab.pos, tab.src, tab.dst])[:, weighted], axis=1)
    _, leaving = np.unique(moves[:2], axis=1, return_counts=True)
    assert leaving.max() >= 3  # three transitions out of one state at one time
    # numpy's pairwise blocks and entry-by-entry adds differ on this sample,
    # so the bits below pin the pairwise order of outflows and diagonals
    want = _literal_nelson_aalen(sample, weights.weights, 1e-4)
    d_hazard = want.counts.increments() / np.maximum(want.exposure_left(), 1e-4)[:, :, None]
    assert not _same_bits(d_hazard.sum(axis=2), _sequential_row_sums(d_hazard))
    _assert_hazard_bits(sample, weights, 1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stored_cells_match_the_dense_twins_with_nine_states(seed):
    # a narrow window over few subjects: most of the 81 cells never occur
    sample = _nine_state_sample(seed, n=80)
    r = fit(sample, (0.25,), explicit_bandwidth=0.1)
    _assert_hazard_bits(sample, nw_weights(sample, (0.25,), KernelSpec.for_dims(1), 0.1), 1e-4)
    hazard, counts = r.hazard.hazard, r.hazard.counts
    assert hazard._cells.size < 81 / 2
    assert hazard._cells.tolist() == sorted({*counts._cells.tolist(), *range(0, 81, 10)})
    sources = np.count_nonzero(hazard.increments().any(axis=2), axis=1)
    assert sources.max() >= 2  # transitions out of two states tie at one time
    grid = hazard.times
    times = np.concatenate([[0.0], grid, (grid[:-1] + grid[1:]) / 2, [grid[-1] + 1.0]])
    for knotted, twin in _twins(r)[:2]:
        assert _same_bits(knotted.values, twin.values)
        assert _same_bits(knotted.increments(), twin.increments())
        for name in ("at", "left"):
            want = np.array([getattr(twin, name)(t) for t in times.tolist()])
            assert _same_bits(getattr(knotted, name)(times), want), name
            assert all(
                _same_bits(getattr(knotted, name)(t), w) for t, w in zip(times.tolist(), want)
            ), name
    initial = r.hazard.initial_exposure()
    want = _stepwise_occupation(r.hazard, initial)
    assert _same_bits(aalen_johansen(r.hazard, initial).values, want)
    assert _same_bits(r.occupation.values, want)


def test_nelson_aalen_bits_without_a_weighted_jump():
    # only a subject outside the kernel window jumps: no cell occurs
    paths = (
        ObservedPath((0.5,), 1, (), 1.0, CENSORED),
        ObservedPath((0.5,), 2, (), 1.5, CENSORED),
        ObservedPath((FAR,), 1, ((0.5, 2), (1.0, 3)), 1.0, ABSORBED),
    )
    sample = Sample(paths, SPACE)
    weights = nw_weights(sample, (0.5,), KernelSpec.for_dims(1), 0.3)
    assert weights.weights[2] == 0.0
    assert not nelson_aalen(sample, weights, 1e-4).counts.values.any()
    _assert_hazard_bits(sample, weights, 1e-4)


def test_nelson_aalen_bits_with_leading_zero_weight_rows():
    # the first three grid times hold only zero-weight events, so the hazard
    # diagonal is -0.0 there: the prefix column has to carry it
    paths = (
        ObservedPath((FAR,), 1, ((0.25, 2), (0.5, 3)), 0.5, ABSORBED),
        ObservedPath((FAR,), 2, (), 0.75, CENSORED),
        ObservedPath((0.5,), 1, ((1.0, 2),), 2.0, CENSORED),
        ObservedPath((0.5,), 1, ((1.5, 3),), 1.5, ABSORBED),
        ObservedPath((0.5,), 2, ((1.0, 3),), 1.0, ABSORBED),
    )
    sample = Sample(paths, SPACE)
    weights = nw_weights(sample, (0.5,), KernelSpec.for_dims(1), 0.3)
    got = nelson_aalen(sample, weights, 1e-4)
    diag = np.arange(3)
    assert _same_bits(got.hazard.values[:3, diag, diag], np.full((3, 3), -0.0))
    _assert_hazard_bits(sample, weights, 1e-4)


def test_nelson_aalen_bits_on_a_sweep_shaped_sample(sweep):
    sample = sweep.sample(2000, 5)
    for x in sweep.points:
        weights = fit(sample, x, sweep.spec).weights
        assert np.count_nonzero(weights.weights) < 0.6 * len(sample)  # the atom halves them
        _assert_hazard_bits(sample, weights, 1e-4)


@pytest.mark.parametrize("coord", [0.1, 0.5, 0.9])
def test_aalen_johansen_matches_stepwise_recursion_at_n3000(default_3000, coord):
    hazard = fit(default_3000, (coord,)).hazard
    inc = hazard.hazard.increments()
    # continuous times: every live step moves one source row
    assert (np.count_nonzero(inc.any(axis=2), axis=1) <= 1).all()
    initial = hazard.initial_exposure()
    occ = aalen_johansen(hazard, initial)
    assert _same_bits(occ.values, _stepwise_occupation(hazard, initial))


# --- CLI writers against the literal csv.writer / json.dump loops ---------


def _fmt(value):
    return format(float(value), ".17g")


def _literal_hazard_csv(result, path):
    states = result.hazard.states
    grid = result.hazard.times
    hazard = result.hazard.hazard.values
    counts = result.hazard.counts.values
    exposure = [result.hazard.exposure[s].values for s in states]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "quantity", "j", "k", "value"])
        for i, t in enumerate(grid):
            ts = _fmt(t)
            for a, sa in enumerate(states):
                for b, sb in enumerate(states):
                    if a != b:
                        writer.writerow([ts, "hazard", sa, sb, _fmt(hazard[i, a, b])])
            for a, sa in enumerate(states):
                for b, sb in enumerate(states):
                    if a != b and counts[i, a, b] != 0.0:
                        writer.writerow([ts, "count", sa, sb, _fmt(counts[i, a, b])])
            for sa, values in zip(states, exposure):
                writer.writerow([ts, "exposure", sa, "", _fmt(values[i])])


def _literal_occupation_csv(result, path):
    states = result.occupation.states
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "j", "value"])
        for idx, s in enumerate(states):
            writer.writerow([_fmt(0.0), s, _fmt(result.occupation.initial[idx])])
        for i, t in enumerate(result.occupation.times):
            for idx, s in enumerate(states):
                writer.writerow([_fmt(t), s, _fmt(result.occupation.values[i, idx])])


def _literal_fit_json(result, n, path):
    states = result.hazard.states
    hazard = result.hazard.hazard.values
    counts = result.hazard.counts.values
    body = {
        "x": list(result.x),
        "atom_flags": list(result.spec.atom_flags(result.x)),
        "kernel": list(result.spec.kernels),
        "atoms": [list(a) for a in result.spec.atoms],
        "n": n,
        "bandwidth": result.bandwidth,
        "epsilon": result.hazard.epsilon,
        "theta": result.theta,
        "density": result.weights.density_value,
        "phi": result.phi,
        "states": list(states),
        "grid": [float(t) for t in result.hazard.times],
        "initial": {str(s): float(v) for s, v in zip(states, result.occupation.initial)},
        "hazard": {},
        "counts": {},
        "exposure": {},
        "occupation": {},
        "floor_active": {str(s): list(v) for s, v in result.hazard.floor_active.items()},
        "beyond_theta": [float(t) for t in result.beyond_theta()],
    }
    for a, sa in enumerate(states):
        for b, sb in enumerate(states):
            if a != b:
                body["hazard"][f"{sa}->{sb}"] = [float(v) for v in hazard[:, a, b]]
                body["counts"][f"{sa}->{sb}"] = [float(v) for v in counts[:, a, b]]
        curve = result.hazard.exposure[sa]
        body["exposure"][str(sa)] = {
            "initial": float(curve.initial),
            "values": [float(v) for v in curve.values],
        }
        body["occupation"][str(sa)] = {
            "initial": float(result.occupation.initial[a]),
            "values": [float(v) for v in result.occupation.values[:, a]],
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _assert_writers_match_literal(result, n):
    grid = cli._format_distinct(result.hazard.times)
    grid_json = cli._format_distinct(result.hazard.times, cli._json_float)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, fast, literal in (
            ("hazard.csv", cli._write_hazard_csv, _literal_hazard_csv),
            ("occupation.csv", cli._write_occupation_csv, _literal_occupation_csv),
        ):
            fast(result, str(root / f"fast_{name}"), grid)
            literal(result, root / f"literal_{name}")
        cli._write_json(cli._fit_json(result, n, grid_json), str(root / "fast_fit.json"))
        _literal_fit_json(result, n, root / "literal_fit.json")
        for name in ("hazard.csv", "occupation.csv", "fit.json"):
            got, want = root / f"fast_{name}", root / f"literal_{name}"
            assert got.read_bytes() == want.read_bytes(), name


@given(fits())
@settings(max_examples=60, deadline=None)
def test_fit_writers_match_literal_loops(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    _assert_writers_match_literal(r, len(sample))


def test_fit_command_matches_literal_loops(tmp_path):
    # the command formats the shared event grid once for all points and files
    sc = default_scenario(n=300, seed=8)
    write_sample(simulate_sample(sc["intensity"], sc["censoring"], 300, 8), tmp_path / "s.csv")
    points = ["0.25", "0.5", "0.75"]
    argv = ["fit", "--input", str(tmp_path / "s.csv"), "--out", str(tmp_path / "cli"), "--json"]
    assert cli.main(argv + [arg for x in points for arg in ("--x", x)]) == 0
    sample = load_sample(tmp_path / "s.csv")
    for i, x in enumerate(points):
        r = fit(sample, (float(x),), epsilon=1e-4)
        _literal_hazard_csv(r, tmp_path / "hazard.csv")
        _literal_occupation_csv(r, tmp_path / "occupation.csv")
        _literal_fit_json(r, len(sample), tmp_path / "fit.json")
        for name in ("hazard", "occupation", "fit"):
            suffix = "json" if name == "fit" else "csv"
            got = (tmp_path / "cli" / f"{name}_{i}.{suffix}").read_bytes()
            assert got == (tmp_path / f"{name}.{suffix}").read_bytes(), (name, x)


# Every column holds 0.0 in row 0 and -0.0 in row 1; the other rows draw from here.
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1, 1.0 / 3.0, 1.0, 2.0,
     123456789.0, -1e-5, np.nan, np.inf, -np.inf]
)
BLOCK = cli._BLOCK_VALUES


def _hand_built_fit(m, seed=0):
    """A fit on a grid of m times whose arrays hold SPECIAL values."""
    rng = np.random.default_rng(seed)
    states = SPACE.states
    two = Sample(
        (
            ObservedPath((0.5,), 1, ((1.0, 2),), 2.0, CENSORED),
            ObservedPath((0.5,), 2, ((0.5, 3),), 0.5, ABSORBED),
        ),
        SPACE,
    )

    def draw(*shape):
        out = rng.choice(SPECIAL, size=(m, *shape))
        out[:1] = 0.0
        out[1:2] = -0.0
        return out

    grid = 5e-324 + np.arange(m) / 3.0
    if m > 3:
        grid[-1] = 1e300
    counts = draw(3, 3)
    counts[2::5] = 0.0  # rows without a count line
    counts[3::7] = -0.0  # -0.0 writes no count line either
    exposure = draw(3)
    hazard = HazardEstimate(
        hazard=StepMatrix(grid, draw(3, 3)),
        epsilon=1e-4,
        exposure={s: StepCurve(grid, exposure[:, i], SPECIAL[i]) for i, s in enumerate(states)},
        counts=StepMatrix(grid, counts),
        floor_active={1: tuple(grid[::4]), 2: (), 3: tuple(grid[-1:])},
        states=states,
    )
    occupation = OccupationEstimate(grid, draw(3), [-0.0, np.nan, 1e300], states)
    theta = grid[m // 2] if m else 0.0
    return replace(fit(two, (0.5,)), hazard=hazard, occupation=occupation, theta=theta)


def _rows_per_block(columns):
    return cli._BLOCK_VALUES // columns


@pytest.mark.parametrize(
    "m",
    [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7,
     _rows_per_block(15), _rows_per_block(15) + 1, _rows_per_block(3) - 1, _rows_per_block(3)],
    ids=["empty", "one", "two", "block-1", "block", "block+1", "blocks",
         "hazard-block", "hazard-block+1", "occupation-block", "occupation-block+1"],
)  # fmt: skip
def test_fit_writers_match_literal_loops_on_hand_built_arrays(m):
    # a JSON array holds m items and a block BLOCK of them; the hazard CSV
    # has 15 columns (6 hazards, 6 counts, 3 exposures) over m rows, the
    # occupation CSV 3 columns over m + 1 rows
    _assert_writers_match_literal(_hand_built_fit(m), 1)


@pytest.mark.parametrize("columns", [3, 15, 50])
def test_write_rows_matches_csv_writer_at_block_edges(columns, tmp_path):
    rows = _rows_per_block(columns)
    rng = np.random.default_rng(columns)
    for m in (rows - 1, rows, rows + 1, 2 * rows + 1):
        values = rng.choice(SPECIAL, size=(m, columns))
        keep = rng.random((m, columns)) < 0.8
        times = 5e-324 + np.arange(m) / 7.0
        path, literal = tmp_path / f"fast_{m}.csv", tmp_path / f"literal_{m}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            labels = [f",q{c}," for c in range(columns)]
            cli._write_rows(handle, cli._format_distinct(times), labels, values, keep)
        with open(literal, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for i, c in zip(*np.nonzero(keep)):
                writer.writerow([_fmt(times[i]), f"q{c}", _fmt(values[i, c])])
        assert path.read_bytes() == literal.read_bytes(), m


def test_json_writer_matches_json_dump_at_every_depth():
    arrays = [np.array([-0.0, 0.0, 5e-324, np.nan, np.inf, -np.inf, 1e300]), np.array([])]
    arrays.append(np.linspace(0.0, 1.0, 2 * BLOCK + 1))

    def body(wrap):
        return {
            "top": wrap(arrays[0]),
            "nested": {"deeper": {"values": wrap(arrays[2]), "empty": wrap(arrays[1])}},
            "in_list": [wrap(arrays[0]), {"values": wrap(arrays[2])}, 1.5, "text"],
            "scalar": -0.0,
        }

    with tempfile.TemporaryDirectory() as tmp:
        fast, literal = Path(tmp) / "fast.json", Path(tmp) / "literal.json"
        cli._write_json(body(lambda a: a), str(fast))
        with open(literal, "w", encoding="utf-8") as handle:
            json.dump(body(lambda a: [float(v) for v in a]), handle, indent=1, sort_keys=True)
            handle.write("\n")
        assert fast.read_bytes() == literal.read_bytes()


def test_format_distinct_keys_on_bits():
    values = np.array([[0.0, -0.0], [-0.0, 0.0], [np.nan, 5e-324]])
    got = cli._format_distinct(values)
    assert got.shape == values.shape
    assert got.tolist() == [["0", "-0"], ["-0", "0"], ["nan", "4.9406564584124654e-324"]]
    assert cli._format_distinct(values, cli._json_float)[2, 0] == "NaN"
