"""Array estimators against the literal per-path references on small samples.

Times come from a coarse lattice, so jumps of different subjects coincide
with each other and with censoring times. Covariates come from a small
set that includes a declared atom and a value far outside every kernel
window, and the floor is sometimes large enough to engage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condaalen.covariance import (
    influence_gamma,
    influence_zeta,
    occupation_covariance,
    zeta_values,
)
from condaalen.data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace, validate
from condaalen.estimators import HazardEstimate, aalen_johansen, fit
from condaalen.kernels import KernelSpec
from condaalen.simulate import brute_force_estimator
from condaalen.stepfun import StepMatrix

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
    assert validate(sample) == []
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
        curves = influence_zeta(sample, r.hazard, r.phi, subject).curves
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
        curves = influence_gamma(r.hazard, r.occupation, zeta, subject).curves
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
    assert np.array_equal(occ.values, _stepwise_occupation(r.hazard, initial))


def _generator_steps(rates):
    """Hazard estimate whose increments are generators with these off-diagonal rates."""
    inc = np.array(rates, dtype=float).reshape(-1, 3, 3)
    diag = np.arange(3)
    inc[:, diag, diag] = -inc.sum(axis=2)
    times = np.arange(1.0, len(inc) + 1.0)
    hazard = StepMatrix(times, np.cumsum(inc, axis=0))
    counts = StepMatrix(times, np.zeros((len(inc), 3, 3)))
    return HazardEstimate(hazard, 1e-4, {}, counts, {}, SPACE.states)


LIVE = [[0.0, 0.2, 0.1], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]]
DEAD = np.zeros((3, 3))


@pytest.mark.parametrize(
    "steps",
    [
        [DEAD] * 4,  # nothing moves: the occupation stays at initial
        [DEAD, DEAD, LIVE, DEAD, LIVE],  # leading zero steps
        [DEAD, DEAD, DEAD, LIVE],  # only the last step is live
        [LIVE, LIVE, DEAD, LIVE],
    ],
    ids=["all-zero", "leading-zero", "live-last", "mixed"],
)
def test_aalen_johansen_hand_cases(steps):
    hazard = _generator_steps(steps)
    initial = np.array([0.6, 0.3, 0.1])
    occ = aalen_johansen(hazard, initial)
    expected = _stepwise_occupation(hazard, initial)
    assert np.array_equal(occ.values, expected)
    live = [i for i, step in enumerate(steps) if np.any(step)]
    first = live[0] if live else len(steps)
    assert np.array_equal(occ.values[:first], np.tile(initial, (first, 1)))


def test_aalen_johansen_empty_grid():
    hazard = _generator_steps(np.zeros((0, 3, 3)))
    occ = aalen_johansen(hazard, np.array([1.0, 0.0, 0.0]))
    assert occ.values.shape == (0, 3)
