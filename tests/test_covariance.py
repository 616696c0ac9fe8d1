import numpy as np
import pytest

from condaalen.covariance import (
    CovarianceSurface,
    _gram,
    default_surface_grid,
    gamma_values,
    hazard_covariance,
    influence_gamma,
    influence_zeta,
    occupation_covariance,
    zeta_values,
)
from condaalen.data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace
from condaalen.estimators import HazardEstimate, OccupationEstimate, fit
from condaalen.kernels import WeightVector
from condaalen.stepfun import StepCurve, StepMatrix


def _two_path_fit():
    space = StateSpace((1, 2), frozenset({2}))
    a = ObservedPath((0.5,), 1, ((1.0, 2),), 1.0, ABSORBED)
    b = ObservedPath((0.5,), 1, (), 2.0, CENSORED)
    sample = Sample((a, b), space)
    return sample, fit(sample, (0.5,), epsilon=1e-4)


def test_single_subject_influence_vanishes():
    space = StateSpace((1, 2), frozenset({2}))
    p = ObservedPath((0.3,), 1, ((1.0, 2),), 1.0, ABSORBED)
    sample = Sample((p,), space)
    r = fit(sample, (0.3,), explicit_bandwidth=1.0)
    zeta = influence_zeta(sample, r.hazard, r.phi, 0)
    for curve in zeta.curves.values():
        np.testing.assert_array_equal(curve.values, 0.0)


def test_never_exposed_subject_influence_vanishes():
    space = StateSpace((1, 2, 3), frozenset({3}))
    a = ObservedPath((0.5,), 1, ((1.0, 2),), 2.5, CENSORED)
    b = ObservedPath((0.5,), 1, (), 2.0, CENSORED)
    c = ObservedPath((0.5,), 2, (), 3.0, CENSORED)
    sample = Sample((a, b, c), space)
    r = fit(sample, (0.5,), epsilon=1e-6)
    zeta = influence_zeta(sample, r.hazard, r.phi, 2)
    np.testing.assert_allclose(zeta.curves[(1, 2)].values, 0.0, atol=1e-15)
    np.testing.assert_allclose(zeta.curves[(1, 3)].values, 0.0, atol=1e-15)


def test_two_path_zeta_hand_values():
    sample, r = _two_path_fit()
    za = influence_zeta(sample, r.hazard, 1.0, 0)
    zb = influence_zeta(sample, r.hazard, 1.0, 1)
    np.testing.assert_allclose(za.curves[(1, 2)].values, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(zb.curves[(1, 2)].values, [-0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(za.curves[(2, 1)].values, 0.0, atol=1e-15)


def test_zeta_scales_with_sqrt_phi():
    sample, r = _two_path_fit()
    one = influence_zeta(sample, r.hazard, 1.0, 0)
    four = influence_zeta(sample, r.hazard, 4.0, 0)
    np.testing.assert_allclose(
        four.curves[(1, 2)].values, 2.0 * one.curves[(1, 2)].values, atol=1e-15
    )


def test_two_path_gamma_hand_values():
    sample, r = _two_path_fit()
    za = influence_zeta(sample, r.hazard, 1.0, 0)
    zb = influence_zeta(sample, r.hazard, 1.0, 1)
    ga = influence_gamma(r.hazard, r.occupation, za, 0)
    gb = influence_gamma(r.hazard, r.occupation, zb, 1)
    np.testing.assert_allclose(ga.curves[1].values, [-0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(ga.curves[2].values, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(gb.curves[1].values, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(gb.curves[2].values, [-0.5, -0.5], atol=1e-12)


def test_two_path_surfaces_hand_values():
    sample, r = _two_path_fit()
    grid = r.hazard.times
    surf = hazard_covariance(sample, r.weights, r.hazard, 1.0, (1, 2), grid)
    np.testing.assert_allclose(surf.values, 0.25, atol=1e-12)
    occ = occupation_covariance(sample, r.weights, r.hazard, r.occupation, 1.0, grid)
    np.testing.assert_allclose(occ[1].values, 0.25, atol=1e-12)
    np.testing.assert_allclose(occ[2].values, 0.25, atol=1e-12)


def test_zeta_matches_literal_formula(sim_sample):
    r = fit(sim_sample, (0.5,))
    h = r.hazard
    grid = h.times
    states = h.states
    expo_left = h.exposure_left()
    d_counts = h.counts.increments()
    d_haz = h.hazard.increments()
    for subject in (0, 3, 17, 94):
        path = sim_sample.paths[subject]
        zeta = influence_zeta(sim_sample, h, r.phi, subject)
        for a, sa in enumerate(states):
            for b, sb in enumerate(states):
                if a == b:
                    continue
                acc = 0.0
                expect = np.empty(len(grid))
                for i, t in enumerate(grid):
                    own = sum(
                        1.0
                        for tt, fj, fk in
                        [(tt, fj, fk) for tt, fj, fk in _jump_triples(path)]
                        if tt == t and fj == sa and fk == sb
                    )
                    left = expo_left[i, a]
                    denom = max(left, h.epsilon)
                    y = _left_state(path, t)
                    exposed = 1.0 if (y == sa and _left_observed(path, t)) else 0.0
                    acc += (own - d_counts[i, a, b]) / denom
                    if left > h.epsilon:
                        acc -= (exposed - left) / left * d_haz[i, a, b]
                    expect[i] = np.sqrt(r.phi) * acc
                np.testing.assert_allclose(
                    zeta.curves[(sa, sb)].values, expect, atol=1e-12
                )


def _jump_triples(path):
    current = path.initial_state
    for t, s in path.jumps:
        yield t, current, s
        current = s


def _left_state(path, t):
    state = path.initial_state
    for time, new in path.jumps:
        if time >= t:
            break
        state = new
    return state


def _left_observed(path, t):
    return path.end_reason == ABSORBED or t <= path.end_time


def test_gamma_with_zero_hazard_accumulates_zeta():
    grid = np.array([1.0, 2.0])
    states = (1, 2)
    zero = StepMatrix(grid, np.zeros((2, 2, 2)))
    hazard = HazardEstimate(
        hazard=zero,
        epsilon=1e-4,
        exposure={1: StepCurve(grid, [1.0, 1.0], 1.0), 2: StepCurve(grid, [0.0, 0.0], 0.0)},
        counts=StepMatrix(grid, np.zeros((2, 2, 2))),
        floor_active={1: (), 2: ()},
        states=states,
    )
    occupation = OccupationEstimate(grid, np.array([[0.3, 0.7], [0.3, 0.7]]), [0.3, 0.7], states)
    zeta = type("Z", (), {})()
    zeta.curves = {
        (1, 2): StepCurve(grid, [1.0, 3.0], 0.0),
        (2, 1): StepCurve(grid, [2.0, 2.0], 0.0),
    }
    gamma = influence_gamma(hazard, occupation, zeta, 0)
    np.testing.assert_allclose(gamma.curves[1].values, [1.1, 0.5], atol=1e-12)
    np.testing.assert_allclose(gamma.curves[2].values, [-1.1, -0.5], atol=1e-12)


def test_vectorized_zeta_matches_per_subject(sim_sample):
    r = fit(sim_sample, (0.5,))
    h = r.hazard
    eval_times = np.concatenate([
        [0.0, h.times[0] / 2],
        h.times[:: max(1, len(h.times) // 9)],
        [(h.times[3] + h.times[4]) / 2, h.times[-1] + 5.0],
    ])
    states = h.states
    for pair in [(a, b) for a in states for b in states if a != b]:
        block = zeta_values(sim_sample, h, r.phi, pair, eval_times)
        for subject in range(0, len(sim_sample), 13):
            curve = influence_zeta(sim_sample, h, r.phi, subject).curves[pair]
            np.testing.assert_allclose(block[subject], curve(eval_times), atol=1e-12)


def test_vectorized_gamma_matches_per_subject(sim_sample):
    r = fit(sim_sample, (0.5,))
    h = r.hazard
    eval_times = np.concatenate([
        [0.0, h.times[0] / 2],
        h.times[:: max(1, len(h.times) // 9)],
        [(h.times[3] + h.times[4]) / 2, h.times[-1] + 5.0],
    ])
    block = gamma_values(sim_sample, h, r.occupation, r.phi, eval_times)
    assert block.shape == (len(sim_sample), eval_times.size, len(h.states))
    for subject in range(0, len(sim_sample), 13):
        zeta = influence_zeta(sim_sample, h, r.phi, subject)
        curves = influence_gamma(h, r.occupation, zeta, subject).curves
        for i, s in enumerate(h.states):
            np.testing.assert_allclose(block[subject, :, i], curves[s](eval_times), atol=1e-12)


def test_gram_rank_one():
    grid = np.array([1.0])
    curves = [StepCurve(grid, [2.0], 0.0), StepCurve(grid, [0.0], 0.0)]
    w = WeightVector([0.5, 0.5], 1.0, False)
    surf = _gram(np.array([curve(grid) for curve in curves]), w.weights, grid)
    np.testing.assert_allclose(surf.values, [[2.0]])


def test_gram_zero_rows():
    grid = np.array([1.0, 2.0])
    curves = [StepCurve(grid, [0.0, 0.0], 0.0) for _ in range(3)]
    w = WeightVector([0.2, 0.3, 0.5], 1.0, False)
    surf = _gram(np.array([curve(grid) for curve in curves]), w.weights, grid)
    np.testing.assert_array_equal(surf.values, np.zeros((2, 2)))


def test_surfaces_symmetric_and_psd(sim_sample):
    r = fit(sim_sample, (0.5,))
    grid = default_surface_grid(r.hazard.times, 20)
    surf = hazard_covariance(sim_sample, r.weights, r.hazard, r.phi, (1, 2), grid)
    np.testing.assert_array_equal(surf.values, surf.values.T)
    assert np.linalg.eigvalsh(surf.values).min() >= -1e-10
    occ = occupation_covariance(sim_sample, r.weights, r.hazard, r.occupation, r.phi, grid)
    for s, os in occ.items():
        np.testing.assert_array_equal(os.values, os.values.T)
        assert np.linalg.eigvalsh(os.values).min() >= -1e-10


def test_default_surface_grid_limits():
    times = np.linspace(0.1, 9.0, 400)
    g = default_surface_grid(times, 50)
    assert g.size <= 50
    assert np.all(np.isin(g, times))
    short = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(default_surface_grid(short, 50), short)


def test_surface_shape_validation():
    with pytest.raises(ValueError):
        CovarianceSurface(np.array([1.0, 2.0]), np.zeros((3, 3)))
