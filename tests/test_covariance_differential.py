"""The blocked occupation-influence pass against the per-step pass, bit for bit.

``covariance.gamma_values`` runs the carry recursion step by step but
gathers and adds its terms a block of steps at a time. The per-step pass
it replaced is kept here as the oracle. Both must give the same bits for
every subject, so each subject has to receive the same additions in the
same order. The block budget is also shrunk to one step, two steps and
one term per round, so that block and round edges fall everywhere.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from test_differential import TICK, fits

from condaalen import covariance
from condaalen.covariance import default_surface_grid, gamma_values
from condaalen.estimators import _generator, fit
from condaalen.simulate import default_scenario, simulate_sample


def _stepwise_gamma_values(sample, hazard, occupation, phi, eval_times):
    """The backward pass one grid step at a time, with two ordered adds a step."""
    grid = hazard.times
    eval_times = np.asarray(eval_times, dtype=float)
    n, m, size = len(sample), len(grid), len(hazard.states)
    out = np.zeros((n, eval_times.size, size))
    if m == 0:
        return out

    expo_left = hazard.exposure_left()
    denom = np.maximum(expo_left, hazard.epsilon)
    above = (expo_left > hazard.epsilon)[:, :, None]
    d_counts = hazard.counts.increments()
    d_haz = hazard.hazard.increments()
    p_left = np.vstack([occupation.initial, occupation.values])[:-1]

    common = _generator(np.where(above, d_haz, 0.0) - d_counts / denom[:, :, None])
    at_risk = np.zeros_like(d_haz)
    np.divide(d_haz, expo_left[:, :, None], out=at_risk, where=above)
    at_risk = _generator(-at_risk)
    left = np.concatenate([p_left[:, :, None] * at_risk, p_left[:, None, :] @ common], axis=1)

    tab = sample.table
    step = np.concatenate([tab.soj_entry, tab.soj_exit]) + 1
    order = np.argsort(step, kind="stable")
    step = step[order]
    b_subj = np.concatenate([tab.soj_subj, tab.soj_subj])[order]
    b_state = np.concatenate([tab.soj_state, tab.soj_state])[order]
    b_sign = np.repeat([1.0, -1.0], tab.soj_subj.size)[order]
    b_bound = np.searchsorted(step, np.arange(m + 1))

    order = np.argsort(tab.pos, kind="stable")
    j_pos, j_subj, j_src, j_dst = (a[order] for a in (tab.pos, tab.subj, tab.src, tab.dst))
    j_coef = (p_left[j_pos, j_src] / denom[j_pos, j_src])[:, None, None]
    j_bound = np.searchsorted(j_pos, np.arange(m + 1))

    idx_g = np.searchsorted(grid, eval_times, side="right") - 1
    eye = np.eye(size)
    carry = np.zeros((eval_times.size, size, size))
    carry[idx_g == m - 1] = eye
    acc = np.zeros((size + 1, eval_times.size, size))
    live = left.any(axis=(1, 2))
    moves = d_haz.any(axis=(1, 2))
    for i in range(m - 1, -1, -1):
        if live[i]:
            acc += np.matmul(left[i], carry).transpose(1, 0, 2)
        lo, hi = b_bound[i], b_bound[i + 1]
        if lo < hi:
            np.add.at(out, b_subj[lo:hi], b_sign[lo:hi, None, None] * acc[b_state[lo:hi]])
        lo, hi = j_bound[i], j_bound[i + 1]
        if lo < hi:
            jumps = carry[:, j_dst[lo:hi]] - carry[:, j_src[lo:hi]]
            np.add.at(out, j_subj[lo:hi], j_coef[lo:hi] * jumps.transpose(1, 0, 2))
        if i > 0:
            if moves[i]:
                carry = np.matmul(eye + d_haz[i], carry)
            carry[idx_g == i - 1] = eye
    out += acc[size]
    return np.sqrt(phi) * out


def _same_bits(a, b):
    """Equal shapes and equal bits, so 0.0 and -0.0 differ and NaN equals NaN."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _budgets(grid_size, size):
    """Block budgets that hold one step, two steps, and one term a round.

    A step takes 3S + 1 cells of G x S floats in ``gamma_values``.
    """
    step = 8 * grid_size * size * (3 * size + 1)
    return (step, 2 * step, 1)


def _assert_blocked_matches_stepwise(sample, result, grid, budgets=()):
    args = (sample, result.hazard, result.occupation, result.phi, grid)
    expect = _stepwise_gamma_values(*args)
    assert _same_bits(gamma_values(*args), expect)
    for budget in budgets:
        with mock.patch.object(covariance, "_BLOCK_BYTES", budget):
            assert _same_bits(gamma_values(*args), expect), budget


@given(fits())
@settings(max_examples=120, deadline=None)
def test_gamma_values_matches_stepwise_pass(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    times = r.hazard.times
    base = np.concatenate([[0.0], times, times + TICK / 2])
    outside = np.array([-1.0, times[0] / 2, times[-1] + TICK, np.inf])
    size = len(r.hazard.states)
    for grid in (base, base[::-1], np.concatenate([base, base[::2]]), outside):
        _assert_blocked_matches_stepwise(sample, r, grid, _budgets(grid.size, size))


@pytest.fixture(scope="module")
def default_3000():
    sc = default_scenario(n=3000, seed=11)
    return simulate_sample(sc["intensity"], sc["censoring"], 3000, 11)


@pytest.mark.parametrize("coord", [0.1, 0.5, 0.9])
def test_gamma_values_matches_stepwise_pass_at_n3000(default_3000, coord):
    r = fit(default_3000, (coord,))
    _assert_blocked_matches_stepwise(default_3000, r, default_surface_grid(r.hazard.times))
