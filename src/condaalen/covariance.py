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
happens. For m event times, G surface-grid points and S states the
pass costs O(m G S^3 + (#stays + #jumps) G S) arithmetic, linear in n,
and needs O(n G S + m S^2) extra memory. :func:`influence_zeta` and
:func:`influence_gamma` compute one subject literally; they are the test
oracles for the vectorised forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ABSORBED, Sample, counting_increments
from .estimators import HazardEstimate, OccupationEstimate
from .kernels import WeightVector
from .stepfun import StepCurve


@dataclass(frozen=True)
class InfluenceCurve:
    """Influence curves of one subject.

    ``curves`` maps an ordered state pair to the hazard influence or a
    single state label to the occupation influence.
    """

    subject: int
    curves: dict


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


def _subject_left_indicator(path, grid: np.ndarray, states: tuple[int, ...]) -> np.ndarray:
    """Left limit of one subject's own exposure indicator, shape (m, S)."""
    m, size = len(grid), len(states)
    out = np.zeros((m, size))
    if m == 0:
        return out
    jump_times = np.array([t for t, _ in path.jumps])
    seq = [path.initial_state] + [s for _, s in path.jumps]
    pos = np.searchsorted(jump_times, grid, side="left")
    state_before = np.array([states.index(seq[i]) for i in pos])
    observed = np.ones(m, dtype=bool)
    if path.end_reason != ABSORBED:
        observed = grid <= path.end_time
    out[np.arange(m)[observed], state_before[observed]] = 1.0
    return out


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
    for t, j, k in counting_increments(path):
        if t > path.end_time:
            continue
        pos = int(np.searchsorted(grid, t))
        d_subj[pos, index[j], index[k]] += 1.0

    d_counts = hazard.counts.increments()
    d_haz = hazard.hazard.increments()
    diag = np.arange(size)
    d_haz = d_haz.copy()
    d_haz[:, diag, diag] = 0.0

    y_left = _subject_left_indicator(path, grid, states)
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
) -> InfluenceCurve:
    """Hazard influence curves of one subject, all ordered state pairs.

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
    return InfluenceCurve(subject, curves)


def influence_gamma(
    hazard: HazardEstimate,
    occupation: OccupationEstimate,
    zeta_set: InfluenceCurve,
    subject: int,
) -> InfluenceCurve:
    """Occupation influence of one subject from its hazard influences.

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
                curve = zeta_set.curves[(sj, sk)]
                dz[:, j, k] = np.diff(curve.values, prepend=0.0)
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
    curves = {
        s: StepCurve(grid, values[:, i], 0.0) for i, s in enumerate(states)
    }
    return InfluenceCurve(subject, curves)


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
    j, k = hazard.states.index(pair[0]), hazard.states.index(pair[1])
    eval_times = np.asarray(eval_times, dtype=float)
    n, m = len(sample), len(grid)
    if m == 0:
        return np.zeros((n, eval_times.size))

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


def _generator(off: np.ndarray) -> np.ndarray:
    """Set the diagonal of each ``(S, S)`` slice to its negative off-diagonal row sum."""
    diag = np.arange(off.shape[-1])
    off[..., diag, diag] = 0.0
    off[..., diag, diag] = -off.sum(axis=-1)
    return off


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
    # Rows 0..S-1 of left[i]: p(u-)_j times the at-risk row of state j;
    # row S: the common term p(u-) @ common.
    left = np.concatenate([p_left[:, :, None] * at_risk, p_left[:, None, :] @ common], axis=1)

    tab = sample.table
    # A stay in j over grid indices (entry, exit] collects acc[j] at
    # entry + 1 minus acc[j] at exit + 1, where acc[j] sums left rows
    # carried to the surface grid from the current index onwards.
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

    # carry[g] = product of (I + dA_l) over l in (i, idx_g], zero once i > idx_g
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


def hazard_covariance(
    sample: Sample,
    w: WeightVector,
    hazard: HazardEstimate,
    phi: float,
    pair: tuple[int, int],
    grid=None,
) -> CovarianceSurface:
    """Plug-in covariance surface of one hazard entry."""
    if grid is None:
        grid = default_surface_grid(hazard.times)
    grid = np.asarray(grid, dtype=float)
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
    if grid is None:
        grid = default_surface_grid(hazard.times)
    grid = np.asarray(grid, dtype=float)
    rows = gamma_values(sample, hazard, occupation, phi, grid)
    return {s: _gram(rows[:, :, i], w.weights, grid) for i, s in enumerate(hazard.states)}
