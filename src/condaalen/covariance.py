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
and the stay and jump terms, added into the subjects' rows a chunk of
subjects at a time.

The blocks keep the bits of a step-by-step pass because every
floating-point operation stays the same. Every product is still one
(S, S) or (S + 1, S) by (S, S) product per point; the carries are
stored state row first, so that a term is one slice of a row, and the
BLAS reads a point's matrix with its rows G*S floats apart. A point
that has not started would only add zeros to zeros. Each partial sum
is the running sum plus one step's term. Each subject receives its
additions in the pass's order: step descending, then a step's stay
boundaries before its own jumps, each in table order. A chunk lays out
its terms by their rank among their subject's terms, and the r-th terms
of its subjects go in with one slice add, so no add repeats a subject.

For m event times, G surface-grid points and S states the pass costs
O(m G S^3 + (#stays + #jumps) G S) arithmetic, linear in n, and needs
O(n G S + m S^2) extra memory plus the block budget ``_BLOCK_BYTES``,
spent once on a block's steps and once on a round.
:func:`influence_zeta` and :func:`influence_gamma` compute one subject
literally; they are the test oracles for the vectorised forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ABSORBED, Sample
from .estimators import HazardEstimate, OccupationEstimate, _generator
from .kernels import WeightVector
from .stepfun import StepCurve

# Bytes of working memory for one block of the occupation-influence pass,
# and again for one round of its additions (see gamma_values).
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
    return np.unique(qs)


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
    # the stay; one ordered add keeps the per-subject summation order.
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


def _chunks(step, is_jump, subj, n, m, per_block, per_chunk):
    """Lay out the additions of the backward pass by block, chunk, rank and subject.

    Each addition into a subject's row is one term at grid step ``step``.
    The pass walks the steps in blocks of ``per_block`` from the top, and
    every subject must receive its terms in loop order: step descending,
    a step's stay boundaries before its own jumps, each kind in table
    order. A term's rank is its place in that order among its subject's
    terms of the block. A block's subjects, most terms first, are cut
    into chunks of about ``per_chunk`` rows, a row for each subject and
    each term. A chunk lays out its terms by rank, then subject, so the
    subjects with an r-th term lead the chunk and rank r adds to a
    leading slice of its subjects' rows. Terms at step ``m`` add nothing
    and are dropped.

    Returns the kept term indices in layout order, the chunks' subjects
    in order, and for each block its chunks as ``(lo, hi, edges)``: the
    chunk's subjects are ``[lo, hi)`` of that array, and ``edges`` bound
    its ranks' runs of terms, from its first term to its last.
    """
    keep = np.flatnonzero(step < m)
    # the terms by (block, subject) pair, in loop order within a pair
    pair = (m - 1 - step[keep]) // per_block * n + subj[keep]
    by_pair = np.argsort(pair * (2 * m + 2) + (m - step[keep]) * 2 + is_jump[keep], kind="stable")
    terms, pair = keep[by_pair], pair[by_pair]
    first = np.flatnonzero(_fresh(pair))
    count = np.diff(first, append=pair.size)
    which = np.repeat(np.arange(first.size), count)
    rank = np.arange(pair.size) - first[which]
    # the pairs in chunk order, by block and then most terms first, and
    # the chunks, of about per_chunk rows: a row of out and one per term
    most = int(count.max(initial=0))
    p_block = pair[first] // n
    by_count = np.argsort(p_block * (most + 1) + most - count, kind="stable")
    p_block, rows = p_block[by_count], count[by_count] + 1
    before = np.cumsum(rows) - rows
    local = (before - before[np.searchsorted(p_block, p_block)]) // per_chunk
    fresh = _fresh(p_block, local)
    place = np.empty_like(by_count)
    place[by_count] = np.arange(by_count.size)
    t_place = place[which]
    t_chunk = (np.cumsum(fresh) - 1)[t_place]
    # the layout: by chunk, then rank, then pair; edges start each rank's run
    lay = np.argsort((t_chunk * most + rank) * by_count.size + t_place)
    t_chunk, rank = t_chunk[lay], rank[lay]
    edges = np.flatnonzero(_fresh(t_chunk, rank)).tolist() + [lay.size]
    starts = np.flatnonzero(fresh)
    firsts = np.searchsorted(edges, np.searchsorted(t_chunk, np.arange(starts.size + 1)))
    s_bounds = np.append(starts, by_count.size).tolist()
    by_block = [[] for _ in range((m - 1) // per_block + 1)]
    for c, b in enumerate(p_block[starts].tolist()):
        by_block[b].append((s_bounds[c], s_bounds[c + 1], edges[firsts[c] : firsts[c + 1] + 1]))
    return terms[lay], (pair[first] % n)[by_count], by_block


def _fresh(*keys: np.ndarray) -> np.ndarray:
    """Where any of equal-length keys differs from its previous entry; True at 0."""
    fresh = np.zeros(keys[0].size, dtype=bool)
    fresh[:1] = True
    for key in keys:
        fresh[1:] |= key[1:] != key[:-1]
    return fresh


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
    # partial sums, 3S + 1 cells of G x S floats a step; a chunk holds
    # its subjects' rows of out and their terms, a cell each.
    cell = eval_times.size * size * 8
    per_block = max(1, _BLOCK_BYTES // (cell * (3 * size + 1)))
    per_chunk = max(1, _BLOCK_BYTES // cell)

    # A stay in j over grid indices (entry, exit] adds acc[j] at step
    # entry + 1 and subtracts it at exit + 1, where acc[j] sums left rows
    # carried to the surface grid from the current index onwards. An own
    # jump adds its coefficient times carry[dst] - carry[src].
    tab = sample.table
    n_stays = tab.soj_subj.size
    step = np.concatenate([tab.soj_entry + 1, tab.soj_exit + 1, tab.pos])
    is_jump = np.arange(step.size) >= 2 * n_stays
    subj = np.concatenate([tab.soj_subj, tab.soj_subj, tab.subj])
    order, rows_subj, by_block = _chunks(step, is_jump, subj, n, m, per_block, per_chunk)
    step, is_jump = step[order], is_jump[order]
    src = np.concatenate([tab.soj_state, tab.soj_state, tab.src])[order]
    dst = np.concatenate([tab.soj_state, tab.soj_state, tab.dst])[order]
    weight = np.where(order < n_stays, 1.0, -1.0)
    at = (step[is_jump], src[is_jump])
    weight[is_jump] = p_left[at] / denom[at]
    # the term's slot in its block: carries[row] for a jump, part[row] for a stay
    live = left.any(axis=(1, 2))
    live_from = np.append(np.cumsum(live[::-1])[::-1], 0)  # live steps at index >= i
    back = m - 1 - step
    top = m - back // per_block * per_block  # the end of the term's block
    row = np.where(is_jump, back % per_block, live_from[step] - live_from[top])
    # the jumps and the stays apart, each in layout order, with the rows of
    # carries (S a step) and of part (S + 1 a step) that they read
    jumps_before = np.append(0, np.cumsum(is_jump)).tolist()
    j_at = np.flatnonzero(is_jump)
    j_dst, j_src = (row[j_at] * size + x[j_at] for x in (dst, src))
    j_weight = weight[j_at, None]
    s_at = np.flatnonzero(~is_jump)
    s_row = row[s_at] * (size + 1) + src[s_at]
    s_weight = weight[s_at, None]

    # Points with the same grid index get the same values, so the pass
    # runs over the distinct indices, ascending: point u starts at step
    # ends[u], adds nothing above it, and a block works on the points from
    # f, the first that starts in or above it. carry[j, u, c] is entry
    # (j, c) of the product of (I + dA_l) over l in (i, ends[u]]; its row j
    # holds every point's row j, as part, acc and out hold theirs, so a
    # term is one row slice. The products still run point by point, on
    # (S, S) matrices whose rows lie G*S apart.
    idx_g = np.searchsorted(grid, eval_times, side="right") - 1
    ends, point = np.unique(idx_g, return_inverse=True)
    begins = {i: u for u, i in enumerate(ends.tolist()) if i >= 0}
    eye = np.eye(size)
    moved = eye + d_haz
    moves = d_haz.any(axis=(1, 2)).tolist() + [False]
    width = ends.size * size
    carry = np.zeros((size, ends.size, size))
    carries = np.zeros((per_block, *carry.shape))
    by_point = carries.transpose(0, 2, 1, 3)  # carries[k] as G (S, S) matrices
    flat = carries.reshape(per_block * size, width)
    acc = np.zeros((size + 1, width))
    out = np.zeros((n, width))
    for b, hi in enumerate(range(m, 0, -per_block)):
        lo = max(hi - per_block, 0)
        f = int(np.searchsorted(ends, lo))
        cols = slice(f * size, width)
        # carries[k]: the carry at step hi - 1 - k, zero before point f
        now = carry.transpose(1, 0, 2)[f:]
        for k, i in enumerate(range(hi - 1, lo - 1, -1)):
            now, before = by_point[k, f:], now
            if moves[i + 1]:
                np.matmul(moved[i + 1], before, out=now)
            else:
                now[...] = before
            if i in begins:
                now[begins[i] - f] = eye
        carry = carries[k].copy()  # the next block overwrites carries
        # part[r]: acc after the block's first r live steps, from the running acc
        live_k = np.flatnonzero(live[lo:hi][::-1])
        part = np.empty((live_k.size + 1, size + 1, width - cols.start))
        part[0] = acc[:, cols]
        terms = part[1:].reshape(live_k.size, size + 1, ends.size - f, size)
        lefts = left[hi - 1 - live_k][:, None]
        np.matmul(lefts, by_point[live_k, f:], out=terms.transpose(0, 2, 1, 3))
        np.cumsum(part, axis=0, out=part)
        acc[:, cols] = part[-1]
        part_rows = part.reshape(-1, part.shape[2])
        # a chunk gathers its terms in layout order, then rank r adds to
        # the rows of the chunk's first q - p subjects
        for s_lo, s_hi, edges in by_block[b]:
            a, z = edges[0], edges[-1]
            rows = out[rows_subj[s_lo:s_hi], cols]
            vals = np.empty((z - a, rows.shape[1]))
            t = slice(jumps_before[a], jumps_before[z])
            if t.start < t.stop:
                jumps = flat[j_dst[t], cols]
                jumps -= flat[j_src[t], cols]
                jumps *= j_weight[t]
                vals[j_at[t] - a] = jumps
            t = slice(a - jumps_before[a], z - jumps_before[z])
            if t.start < t.stop:
                stays = part_rows[s_row[t]]
                stays *= s_weight[t]
                vals[s_at[t] - a] = stays
            for p, q in zip(edges, edges[1:]):
                rows[: q - p] += vals[p - a : q - a]
            out[rows_subj[s_lo:s_hi], cols] = rows
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
