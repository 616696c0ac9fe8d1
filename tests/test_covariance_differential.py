"""The covariance passes against the literal passes they replaced, bit for bit.

``covariance.gamma_values`` runs the carry recursion step by step but
gathers and adds its terms a block of steps at a time.
``covariance.zeta_values`` adds its stay terms a chunk of stays at a
time. The per-step occupation pass and the one-shot hazard pass they
replaced are kept here as the oracles. Each pair must give the same
bits for every subject, so each subject has to receive the same
additions in the same order. The budget is also shrunk to one step, two
steps and one term a slice, and to one stay a chunk, so that block,
slice and chunk edges fall everywhere.

Both occupation passes make one product per surface point, of the same
shapes. The oracle's matrices are contiguous, while ``gamma_values``
stores a step's carries state row first, so the rows of a point's matrix
lie (G - f) * S apart. That needs the host's BLAS to give a product the
same bits whatever the row stride of its operands; the first two tests
check that directly. The five-state samples below make the carry
products sums of more than two nonzero terms, which three-state samples
rarely do.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_differential import TICK, fits

from condaalen import covariance
from condaalen.covariance import default_surface_grid, gamma_values, zeta_values
from condaalen.data import ABSORBED, CENSORED, ObservedPath, Sample, StateSpace
from condaalen.estimators import _generator, fit
from condaalen.simulate import default_scenario, simulate_sample


# Signed zeros, subnormals and values whose products overflow or underflow.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1e-300, -1e-300])


@st.composite
def factors(draw, stacked):
    """A left factor of S or S + 1 rows and a stack of G (S, S) carries."""
    size = draw(st.integers(2, 5))
    points = draw(st.integers(1, 200))
    rows = size + draw(st.integers(0, 1))
    lead = (draw(st.integers(1, 12)),) if stacked else ()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from([0.0, 0.05, 0.5]))

    def mix(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        pick = rng.random(shape) < special
        a[pick] = rng.choice(SPECIAL, pick.sum())
        return a

    return mix((*lead, rows, size)), mix((*lead, points, size, size))


def _rows_apart(carry):
    """(..., G, S, S) carries as ``gamma_values`` stores them, state row first.

    Returns a (..., G, S, S) view of a (..., S, G, S) array, so the rows
    of each (S, S) matrix lie G*S floats apart.
    """
    inside = np.ascontiguousarray(np.moveaxis(carry, -3, -2))
    return np.moveaxis(inside, -2, -3)


def _rows_apart_empty(shape):
    """An uninitialised (..., G, R, S) array stored state row first."""
    *lead, points, rows, size = shape
    return np.moveaxis(np.empty((*lead, rows, points, size)), -2, -3)


@given(factors(stacked=False))
@settings(max_examples=400, deadline=None)
def test_strided_carry_product_has_contiguous_bits(case):
    moved, carry = case
    expect = np.empty((carry.shape[0], *moved.shape))
    got = _rows_apart_empty(expect.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(moved, carry, out=expect)
        np.matmul(moved, _rows_apart(carry), out=got)
    assert _same_bits(np.ascontiguousarray(got), expect)


@given(factors(stacked=True))
@settings(max_examples=400, deadline=None)
def test_strided_block_product_has_contiguous_bits(case):
    left, carries = case
    expect = np.empty((*carries.shape[:2], *left.shape[1:]))
    got = _rows_apart_empty(expect.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(left[:, None], carries, out=expect)
        np.matmul(left[:, None], _rows_apart(carries), out=got)
    assert _same_bits(np.ascontiguousarray(got), expect)


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
    """Block budgets that hold one step, two steps, and one term a slice.

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
    early = np.array([-1.0, 0.0, times[0]])  # no point starts in the blocks of late steps
    size = len(r.hazard.states)
    for grid in (base, base[::-1], np.concatenate([base, base[::2]]), outside, early):
        _assert_blocked_matches_stepwise(sample, r, grid, _budgets(grid.size, size))


@pytest.fixture(scope="module")
def default_3000():
    sc = default_scenario(n=3000, seed=11)
    return simulate_sample(sc["intensity"], sc["censoring"], 3000, 11)


@pytest.mark.parametrize("coord", [0.1, 0.5, 0.9])
def test_gamma_values_matches_stepwise_pass_at_n3000(default_3000, coord):
    r = fit(default_3000, (coord,))
    _assert_blocked_matches_stepwise(default_3000, r, default_surface_grid(r.hazard.times))


def _five_state_sample(n, seed):
    """Paths over five states on a coarse time lattice, state 5 absorbing.

    Jumps of different subjects and censoring times share lattice points,
    so a step can carry several transitions out of one state, which makes
    the carry products sums of more than two nonzero terms.
    """
    rng = np.random.default_rng(seed)
    space = StateSpace((1, 2, 3, 4, 5), frozenset({5}))
    paths = []
    for _ in range(n):
        x = (float(rng.choice([0.0, 0.25, 0.5, 1.0])),)
        state = initial = int(rng.integers(1, 5))
        end = int(rng.integers(1, 16))
        jumps, tick = [], 0
        while True:
            tick += int(rng.integers(1, 4))
            if tick > end:
                paths.append(ObservedPath(x, initial, tuple(jumps), end * TICK, CENSORED))
                break
            state = int(rng.choice([s for s in space.states if s != state]))
            jumps.append((tick * TICK, state))
            if state == 5:
                paths.append(ObservedPath(x, initial, tuple(jumps), tick * TICK, ABSORBED))
                break
    return Sample(tuple(paths), space)


@pytest.mark.parametrize("seed", [0, 1])
def test_gamma_values_matches_stepwise_pass_with_five_states(seed):
    sample = _five_state_sample(200, seed)
    sample.table  # noqa: B018 -- the path rules hold
    r = fit(sample, (0.5,))
    times = r.hazard.times
    grid = np.concatenate([[0.0], times, times + TICK / 2])
    _assert_blocked_matches_stepwise(sample, r, grid, _budgets(grid.size, 5))


def _one_shot_zeta_values(sample, hazard, phi, pair, eval_times):
    """The hazard pass with every stay term in one (stays, 2, G) array and one ordered add."""
    grid = hazard.times
    j, k = covariance._pair_index(hazard.states, pair)
    eval_times = np.asarray(eval_times, dtype=float)
    n, m = len(sample), len(grid)

    expo_left = hazard.exposure_left()[:, j]
    denom = np.maximum(expo_left, hazard.epsilon)
    above = expo_left > hazard.epsilon

    d_counts = hazard.counts.increments()[:, j, k]
    d_haz = hazard.hazard.increments()[:, j, k]

    cum_b1 = np.cumsum(d_counts / denom)
    c2 = np.zeros(m)
    np.divide(d_haz, expo_left, out=c2, where=above)
    cum_c2 = np.cumsum(c2)
    cum_s2 = np.cumsum(np.where(above, d_haz, 0.0))

    idx_g = np.searchsorted(grid, eval_times, side="right") - 1

    def cum_at(cum, idx):
        return np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)

    base = -cum_at(cum_b1, idx_g) + cum_at(cum_s2, idx_g)
    out = np.tile(base, (n, 1))

    tab = sample.table
    stay = tab.soj_state == j
    entry = tab.soj_entry[stay][:, None]
    leave = tab.soj_exit[stay][:, None]
    steps = np.empty((entry.shape[0], 2, idx_g.size))
    steps[:, 0] = np.where(idx_g >= leave, 1.0 / denom[leave], 0.0)
    steps[:, 1] = -(
        cum_at(cum_c2, np.minimum(leave, idx_g)) - cum_at(cum_c2, np.minimum(entry, idx_g))
    )
    own = tab.soj_next[stay] == k
    keep = np.column_stack([own, np.ones_like(own)])
    np.add.at(out, np.repeat(tab.soj_subj[stay], 2)[keep.ravel()], steps[keep])
    return np.sqrt(phi) * out


def _assert_chunked_zeta_matches_one_shot(sample, result, grid):
    states = result.hazard.states
    for pair in [(a, b) for a in states for b in states if a != b]:
        args = (sample, result.hazard, result.phi, pair, grid)
        expect = _one_shot_zeta_values(*args)
        assert _same_bits(zeta_values(*args), expect), pair
        with mock.patch.object(covariance, "_BLOCK_BYTES", 1):  # one stay a chunk
            assert _same_bits(zeta_values(*args), expect), pair


@given(fits())
@settings(max_examples=120, deadline=None)
def test_zeta_values_matches_one_shot_pass(case):
    sample, spec, x, bandwidth, epsilon = case
    r = fit(sample, x, spec, explicit_bandwidth=bandwidth, epsilon=epsilon)
    times = r.hazard.times
    base = np.concatenate([[0.0], times, times + TICK / 2])
    outside = np.array([-1.0, times[0] / 2, times[-1] + TICK, np.inf])
    for grid in (base, base[::-1], np.concatenate([base, base[::2]]), outside):
        _assert_chunked_zeta_matches_one_shot(sample, r, grid)


@pytest.mark.parametrize("seed", [0, 1])
def test_zeta_values_matches_one_shot_pass_with_five_states(seed):
    sample = _five_state_sample(200, seed)
    r = fit(sample, (0.5,))
    times = r.hazard.times
    _assert_chunked_zeta_matches_one_shot(sample, r, np.concatenate([[0.0], times, times + TICK / 2]))
