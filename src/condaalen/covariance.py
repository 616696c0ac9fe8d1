"""Plug-in covariance estimation for hazard and occupation estimates.

Per-subject influence curves are step functions on the event grid; a
covariance surface is their weighted Gram matrix on a restricted time
grid, which keeps memory at the square of the grid size. The hazard
influence has two parts: a martingale-like term with floored
denominators and a compensating term that is switched off wherever the
floor engaged. The occupation influence propagates hazard perturbations
through the product integral.

The surfaces are computed for all subjects at once. :func:`zeta_values`
adds each subject's stays as differences of cumulative sums.
:func:`gamma_values` uses the Duhamel / delta-method form of the
Aalen-Johansen influence (Andersen, Borgan, Gill & Keiding 1993,
section IV.4): a subject's occupation influence at surface-grid index
``g`` is the sum over grid indices ``i <= g`` of ``p(u-) dZ_i P(i, g)``,
where ``p(u-)`` is the occupation left limit, ``dZ_i`` the subject's
hazard-influence increment in generator form and ``P(i, g)`` the
product of ``I + dA_l`` over ``l`` in ``(i, g]``. The increment splits
into three parts:

- a part common to all subjects, ``-dC / denom + 1{E > eps} dA``;
- a part picked by the subject's at-risk state, ``-Y 1{E > eps} dA / E``;
- the subject's own jumps, ``+1 / denom``.

One backward pass over the event grid carries ``P(i, g)`` for every
``g`` as a stack, with a running sum for the common part and one per
state for the at-risk part. A stay adds its state's sum at its entry
and subtracts it at its exit; a jump adds its own term where it
happens. Points with the same grid index share their values, so the
pass runs over the distinct indices, and a point adds nothing above its
index, so a block of steps works only on the points that start in or
above it. Only the carry recursion runs step by step, one (S, S)
product per point a step, in one call. The rest runs once per block of
steps: one call for the products of the live steps' left rows with the
block's carries, a cumulative sum that starts from the running sums,
and the stay and jump terms, added into the subjects' rows a slice of
terms at a time.

The blocks keep the bits of a step-by-step pass because every
floating-point operation stays the same. Every product is still one
(S, S) or (S + 1, S) by (S, S) product per point; the carries are
stored state row first, so that a term is one slice of a row, and the
BLAS reads a point's matrix with its rows (G - f) * S floats apart, f
being the block's first point. A point that has not started would only
add zeros to zeros. Each partial sum is the running sum plus one step's
term. Each subject receives its additions in the pass's order: step
descending, then a step's stay boundaries before its own jumps, each in
table order. One stable sort lays all terms out in that order, and
:func:`_ordered_add` adds a slice of them with one ``np.add.at``, which
adds a repeated index unbuffered, in index order. :func:`zeta_values`
adds its stay terms the same way, a chunk of stays at a time.

For m event times, G surface-grid points and S states the pass costs
O(m G S^3 + (#stays + #jumps) G S) arithmetic, linear in n, and needs
O(n G S + m S^2) extra memory plus the block budget ``_BLOCK_BYTES``,
spent once on a block's steps and once on a slice of its terms.
:func:`influence_zeta` and :func:`influence_gamma` compute one subject
literally; they are the test oracles for the vectorised forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ABSORBED, Sample, _distinct
from .estimators import HazardEstimate, OccupationEstimate, _generator
from .kernels import WeightVector
from .stepfun import StepCurve

# Bytes of working memory for one block of the occupation-influence pass,
# and again for one slice of its additions or one chunk of zeta_values'.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class CovarianceSurface:
    """Covariance values on a two-sided time grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (g.size, g.size):
            raise ValueError("values must be square over the grid")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def _zeta_increments(sample, hazard: HazardEstimate, phi: float, subject: int) -> np.ndarray:
    grid = hazard.times
    states = hazard.states
    index = {s: i for i, s in enumerate(states)}
    m, size = len(grid), len(states)
    path = sample.paths[subject]

    expo_left = hazard.exposure_left()
    denom = np.maximum(expo_left, hazard.epsilon)
    above = expo_left > hazard.epsilon

    d_subj = np.zeros((m, size, size))
    prev = path.initial_state
    for t, state in path.jumps:
        d_subj[int(np.searchsorted(grid, t)), index[prev], index[state]] += 1.0
        prev = state

    d_counts = hazard.counts.increments()
    d_haz = hazard.hazard.increments()
    diag = np.arange(size)
    d_haz = d_haz.copy()
    d_haz[:, diag, diag] = 0.0

    # the subject's own exposure indicator, left limit
    y_left = np.zeros((m, size))
    for i, t in enumerate(grid):
        if path.end_reason == ABSORBED or t <= path.end_time:
            y_left[i, index[path.state_before(t)]] = 1.0
    coef = np.zeros((m, size))
    np.divide(y_left - expo_left, expo_left, out=coef, where=above)
    coef[~above] = 0.0

    inc = (d_subj - d_counts) / denom[:, :, None] - coef[:, :, None] * d_haz
    inc[:, diag, diag] = 0.0
    return np.sqrt(phi) * inc


def influence_zeta(
    sample: Sample,
    hazard: HazardEstimate,
    phi: float,
    subject: int,
) -> dict[tuple[int, int], StepCurve]:
    """Hazard influence curves of one subject, keyed by ordered state pair.

    For a pair ``(j, k)`` the curve cumulates the subject's own counting
    increments against the weighted average, both over the floored
    exposure, minus the compensator correction, which is active only
    where the exposure left limit sits strictly above the floor. The
    whole curve is scaled by the square root of ``phi``. It starts at
    zero, and with a single-subject sample it vanishes identically.
    """
    inc = _zeta_increments(sample, hazard, phi, subject)
    cum = np.cumsum(inc, axis=0)
    grid = hazard.times
    states = hazard.states
    curves = {}
    for j, sj in enumerate(states):
        for k, sk in enumerate(states):
            if j != k:
                curves[(sj, sk)] = StepCurve(grid, cum[:, j, k], 0.0)
    return curves


def influence_gamma(
    hazard: HazardEstimate,
    occupation: OccupationEstimate,
    zeta_curves: dict[tuple[int, int], StepCurve],
) -> dict[int, StepCurve]:
    """Occupation influence of one subject, keyed by state, from its hazard influences.

    Propagates each hazard influence increment through the product
    integral: the increment matrix (diagonal set to the negative row
    sum) is sandwiched between the product integral up to just before
    the increment and from the increment to the evaluation time, then
    premultiplied by the occupation row at time zero.
    """
    grid = hazard.times
    states = hazard.states
    m, size = len(grid), len(states)
    init = np.asarray(occupation.initial, dtype=float)

    d_haz = hazard.hazard.increments()
    dz = np.zeros((m, size, size))
    for j, sj in enumerate(states):
        for k, sk in enumerate(states):
            if j != k:
                dz[:, j, k] = np.diff(zeta_curves[(sj, sk)].values, prepend=0.0)
    diag = np.arange(size)
    dz[:, diag, diag] = -dz.sum(axis=2)

    eye = np.eye(size)
    prefix = eye.copy()
    gamma = np.zeros(size)
    values = np.empty((m, size))
    for i in range(m):
        step = d_haz[i]
        zstep = dz[i]
        if step.any() or zstep.any():
            gamma = gamma + gamma @ step + init @ prefix @ zstep
            prefix = prefix @ (eye + step)
        values[i] = gamma
    return {s: StepCurve(grid, values[:, i], 0.0) for i, s in enumerate(states)}


def _gram(rows: np.ndarray, weights: np.ndarray, grid: np.ndarray) -> CovarianceSurface:
    weighted = rows * weights[:, None]
    values = weighted.T @ rows
    values = 0.5 * (values + values.T)
    return CovarianceSurface(grid, values)


def default_surface_grid(times: np.ndarray, size: int = 50) -> np.ndarray:
    """Equispaced quantiles of the event times, snapped to observations."""
    times = np.asarray(times, dtype=float)
    if times.size <= size:
        return times.copy()
    qs = np.quantile(times, np.linspace(0.0, 1.0, size), method="closest_observation")
    return _distinct(qs)


def _surface_grid(grid, times: np.ndarray) -> np.ndarray:
    """A caller's surface grid as floats, or the default one over ``times``.

    A grid that is not one-dimensional is refused, and so is a NaN point:
    the grid lookup would sort it after every event time and read it as
    the last one.
    """
    if grid is None:
        return default_surface_grid(times)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"surface grid must be one-dimensional, got shape {grid.shape}")
    nan = np.flatnonzero(np.isnan(grid))
    if nan.size:
        raise ValueError(f"surface grid point {nan[0]} is NaN")
    return grid


def _pair_index(states, pair) -> tuple[int, int]:
    """Positions in ``states`` of a pair's two labels, which must differ."""
    for label in pair:
        if label not in states:
            raise ValueError(f"state pair {pair}: unknown state label {label}")
    if pair[0] == pair[1]:
        raise ValueError(f"state pair {pair}: a hazard needs two different states")
    return states.index(pair[0]), states.index(pair[1])


def zeta_values(
    sample: Sample,
    hazard: HazardEstimate,
    phi: float,
    pair: tuple[int, int],
    eval_times,
) -> np.ndarray:
    """All subjects' hazard influence for one pair at selected times.

    Returns an ``(n, len(eval_times))`` array equal row by row to
    :func:`influence_zeta` curves evaluated at ``eval_times``, computed
    without materializing per-subject step functions so that large
    samples stay cheap.
    """
    grid = hazard.times
    j, k = _pair_index(hazard.states, pair)
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

    def cum_at(cum: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)

    base = -cum_at(cum_b1, idx_g) + cum_at(cum_s2, idx_g)
    out = np.tile(base, (n, 1))

    # Each stay in state j contributes, in the subject's time order, its
    # own j->k jump (when it ends in one) and then the compensator over
    # the stay. A chunk of stays, in table order, holds two terms a stay,
    # each a row of values, its kept copy and its indices into out.
    tab = sample.table
    stays = np.flatnonzero(tab.soj_state == j)
    per_chunk = max(1, _BLOCK_BYTES // (48 * max(idx_g.size, 1)))
    for lo in range(0, stays.size, per_chunk):
        stay = stays[lo : lo + per_chunk]
        entry = tab.soj_entry[stay][:, None]
        leave = tab.soj_exit[stay][:, None]
        steps = np.empty((stay.size, 2, idx_g.size))
        steps[:, 0] = np.where(idx_g >= leave, 1.0 / denom[leave], 0.0)
        steps[:, 1] = -(
            cum_at(cum_c2, np.minimum(leave, idx_g)) - cum_at(cum_c2, np.minimum(entry, idx_g))
        )
        keep = np.column_stack([tab.soj_next[stay] == k, np.ones(stay.size, dtype=bool)])
        _ordered_add(out, np.repeat(tab.soj_subj[stay], 2)[keep.ravel()], 0, steps[keep])
    out *= np.sqrt(phi)
    return out


def _ordered_add(out: np.ndarray, rows: np.ndarray, start: int, vals: np.ndarray) -> None:
    """``out[rows[i], start:] += vals[i]`` for each ``i`` in turn; ``out`` is C-contiguous.

    ``np.add.at`` adds unbuffered, in the order of its index, so a row
    that ``rows`` repeats receives its terms in the order of ``i``. Over
    one-dimensional operands it takes numpy's fast path, which costs a
    fraction of a row-wise call.
    """
    width = out.shape[1]
    index = rows[:, None] * width + np.arange(start, width)
    np.add.at(out.reshape(-1), index.ravel(), vals.ravel())


def gamma_values(
    sample: Sample,
    hazard: HazardEstimate,
    occupation: OccupationEstimate,
    phi: float,
    eval_times,
) -> np.ndarray:
    """All subjects' occupation influence at selected times.

    Returns an ``(n, len(eval_times), S)`` array, state axis in
    ``hazard.states`` order, equal row by row to :func:`influence_gamma`
    of :func:`influence_zeta` evaluated at ``eval_times``. One backward
    pass over the event grid serves every subject (see the module
    docstring).
    """
    grid = hazard.times
    eval_times = np.asarray(eval_times, dtype=float)
    n, m, size = len(sample), len(grid), len(hazard.states)
    if eval_times.size == 0:
        return np.zeros((n, eval_times.size, size))

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
    # Rows 0..S-1 of left[i]: p(u-)_j times the at-risk row of state j;
    # row S: the common term p(u-) @ common.
    left = np.concatenate([p_left[:, :, None] * at_risk, p_left[:, None, :] @ common], axis=1)

    # A block of steps holds its carries, their live copies and its
    # partial sums, 3S + 1 cells of G x S floats a step; a slice of its
    # terms holds their values, a row they subtract and their indices into
    # out, three cells a term.
    cell = eval_times.size * size * 8
    per_block = max(1, _BLOCK_BYTES // (cell * (3 * size + 1)))
    per_slice = max(1, _BLOCK_BYTES // (3 * cell))

    # A stay in j over grid indices (entry, exit] adds acc[j] at step
    # entry + 1 and subtracts it at exit + 1, where acc[j] sums left rows
    # carried to the surface grid from the current index onwards. An own
    # jump adds its coefficient times carry[dst] - carry[src]. The terms
    # go in loop order: step descending, then a step's stays before its
    # jumps, each in table order. Terms at step m add nothing.
    tab = sample.table
    n_stays = tab.soj_subj.size
    step = np.concatenate([tab.soj_entry + 1, tab.soj_exit + 1, tab.pos])
    is_jump = np.arange(step.size) >= 2 * n_stays
    order = np.argsort((m - step) * 2 + is_jump, kind="stable")
    order = order[step[order] < m]
    step, is_jump = step[order], is_jump[order]
    subj = np.concatenate([tab.soj_subj, tab.soj_subj, tab.subj])[order]
    src = np.concatenate([tab.soj_state, tab.soj_state, tab.src])[order]
    dst = np.concatenate([tab.soj_state, tab.soj_state, tab.dst])[order]
    weight = np.where(order < n_stays, 1.0, -1.0)
    at = (step[is_jump], src[is_jump])
    weight[is_jump] = p_left[at] / denom[at]
    # the rows a term reads, in its block's buffer: carries[k] for a jump
    # at the block's k-th step from the top, then a zero row, then part[r]
    # for a stay after the block's r-th live step; a term is read - less
    live = left.any(axis=(1, 2))
    live_from = np.append(np.cumsum(live[::-1])[::-1], 0)  # live steps at index >= i
    back = m - 1 - step
    top = m - back // per_block * per_block  # the end of the term's block
    row = np.where(is_jump, back % per_block, live_from[step] - live_from[top])
    zero = per_block * size
    read = np.where(is_jump, row * size + dst, zero + 1 + row * (size + 1) + src)
    less = np.where(is_jump, row * size + src, zero)
    firsts = np.searchsorted(back, np.arange(0, m + per_block, per_block)).tolist()

    # Points with the same grid index get the same values, so the pass
    # runs over the distinct indices, ascending: point u starts at step
    # ends[u], adds nothing above it, and a block works on the points from
    # f, the first that starts in or above it. carry[j, u, c] is entry
    # (j, c) of the product of (I + dA_l) over l in (i, ends[u]]; its row j
    # holds every point's row j, as part, acc and out hold theirs, so a
    # term is one row slice. The products still run point by point, on
    # (S, S) matrices whose rows lie (G - f) * S apart.
    idx_g = np.searchsorted(grid, eval_times, side="right") - 1
    ends, point = np.unique(idx_g, return_inverse=True)
    begins = {i: u for u, i in enumerate(ends.tolist()) if i >= 0}
    eye = np.eye(size)
    moved = eye + d_haz
    moves = d_haz.any(axis=(1, 2)).tolist() + [False]
    width = ends.size * size
    carry = np.zeros((size, ends.size, size))
    acc = np.zeros((size + 1, width))
    out = np.zeros((n, width))
    for b, hi in enumerate(range(m, 0, -per_block)):
        lo = max(hi - per_block, 0)
        f = int(np.searchsorted(ends, lo))
        if f == ends.size:  # no point has started: every carry stays zero
            continue
        start = f * size
        live_k = np.flatnonzero(live[lo:hi][::-1])
        reads = np.empty((zero + 1 + (live_k.size + 1) * (size + 1), width - start))
        # carries[k]: the carry at step hi - 1 - k, from point f on
        carries = reads[:zero].reshape(per_block, size, ends.size - f, size)
        by_point = carries.transpose(0, 2, 1, 3)  # carries[k] as (S, S) matrices
        now = carry.transpose(1, 0, 2)[f:]
        for k, i in enumerate(range(hi - 1, lo - 1, -1)):
            now, before = by_point[k], now
            if moves[i + 1]:
                np.matmul(moved[i + 1], before, out=now)
            else:
                now[...] = before
            if i in begins:
                now[begins[i] - f] = eye
        carry[:, f:] = carries[k]
        reads[zero] = 0.0
        # part[r]: acc after the block's first r live steps, from the running acc
        part = reads[zero + 1 :].reshape(live_k.size + 1, size + 1, width - start)
        part[0] = acc[:, start:]
        terms = part[1:].reshape(live_k.size, size + 1, ends.size - f, size)
        lefts = left[hi - 1 - live_k][:, None]
        np.matmul(lefts, by_point[live_k], out=terms.transpose(0, 2, 1, 3))
        np.cumsum(part, axis=0, out=part)
        acc[:, start:] = part[-1]
        for p in range(firsts[b], firsts[b + 1], per_slice):
            t = slice(p, min(p + per_slice, firsts[b + 1]))
            vals = reads[read[t]]
            vals -= reads[less[t]]
            vals *= weight[t, None]
            _ordered_add(out, subj[t], start, vals)
    out += acc[size]
    out *= np.sqrt(phi)
    out = out.reshape(n, ends.size, size)
    return out if np.array_equal(point, np.arange(point.size)) else out[:, point]


def hazard_covariance(
    sample: Sample,
    w: WeightVector,
    hazard: HazardEstimate,
    phi: float,
    pair: tuple[int, int],
    grid=None,
) -> CovarianceSurface:
    """Plug-in covariance surface of one hazard entry."""
    grid = _surface_grid(grid, hazard.times)
    rows = zeta_values(sample, hazard, phi, pair, grid)
    return _gram(rows, w.weights, grid)


def occupation_covariance(
    sample: Sample,
    w: WeightVector,
    hazard: HazardEstimate,
    occupation: OccupationEstimate,
    phi: float,
    grid=None,
) -> dict[int, CovarianceSurface]:
    """Plug-in covariance surfaces of every state occupation entry."""
    grid = _surface_grid(grid, hazard.times)
    rows = gamma_values(sample, hazard, occupation, phi, grid)
    return {s: _gram(rows[:, :, i], w.weights, grid) for i, s in enumerate(hazard.states)}
