"""Plug-in covariance estimation for hazard and occupation estimates.

Per-subject influence curves are step functions on the event grid; a
covariance surface is their weighted Gram matrix on a restricted time
grid, which keeps memory at the square of the grid size. The hazard
influence has two parts: a martingale-like term with floored
denominators and a compensating term that is switched off wherever the
floor engaged. The occupation influence propagates hazard perturbations
through the product integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ABSORBED, Sample, counting_increments
from .estimators import HazardEstimate, OccupationEstimate
from .kernels import WeightVector
from .stepfun import StepCurve


@dataclass(frozen=True)
class PerturbationIndicator:
    """Per-state 0/1 curves: exposure left limit strictly above the floor.

    The value stored at a grid time is the indicator evaluated at that
    time's left limit.
    """

    curves: dict[int, StepCurve]


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


def perturbation_indicator(hazard: HazardEstimate) -> PerturbationIndicator:
    expo_left = hazard.exposure_left()
    grid = hazard.times
    init = hazard.initial_exposure()
    curves = {}
    for i, s in enumerate(hazard.states):
        vals = (expo_left[:, i] > hazard.epsilon).astype(float)
        curves[s] = StepCurve(grid, vals, float(init[i] > hazard.epsilon))
    return PerturbationIndicator(curves)


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


def cov_hazard(influences, w: WeightVector, grid) -> CovarianceSurface:
    """Weighted Gram surface of hazard influence curves on ``grid``.

    ``influences`` holds one subject's curve per sample path, aligned
    with the weight order: either the per-pair :class:`StepCurve`
    directly or the subject's :class:`InfluenceCurve` together with the
    pair selected by the caller beforehand.
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.array([curve(grid) for curve in influences])
    return _gram(rows, w.weights, grid)


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
    rows = {s: np.empty((len(sample), grid.size)) for s in hazard.states}
    for ell in range(len(sample)):
        zeta = influence_zeta(sample, hazard, phi, ell)
        gamma = influence_gamma(hazard, occupation, zeta, ell)
        for s in hazard.states:
            rows[s][ell] = gamma.curves[s](grid)
    return {s: _gram(rows[s], w.weights, grid) for s in hazard.states}
