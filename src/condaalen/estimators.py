"""Conditional cumulative hazard and state occupation estimators.

All estimators work on one shared event-time grid, the sorted union of
every observed jump time and censoring time in the sample. The grid and
every per-jump and per-subject index come from ``Sample.table`` (see
:class:`~condaalen.data.EventTable`); the estimators only aggregate its
arrays. Ties across subjects are aggregated at a single grid point. Left
limits at a grid point are the values held on the preceding inter-event
interval.

The cumulative hazard matrix follows the generator sign convention: its
diagonal is the negative row sum of the off-diagonal entries, so each
one-step factor of the product integral is a stochastic matrix and the
occupation recursion conserves total mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EvalPoint, Sample
from .kernels import (
    BandwidthSchedule,
    KernelSpec,
    NoKernelMass,
    WeightVector,
    bandwidth,
    nw_weights,
    phi_estimate,
)
from .stepfun import StepCurve, StepMatrix


@dataclass(frozen=True)
class HazardEstimate:
    """Conditional cumulative hazard with its estimation by-products.

    Fields
    ------
    hazard : StepMatrix
        Cumulative hazard; off-diagonal entries are nondecreasing and the
        diagonal carries the negative off-diagonal row sums.
    epsilon : float
        Denominator floor used where exposure left limits fall below it.
    exposure : dict[int, StepCurve]
        Kernel-weighted exposure per state label.
    counts : StepMatrix
        Cumulative kernel-weighted transition counts (zero diagonal).
    floor_active : dict[int, tuple[float, ...]]
        Per state, the grid times where the exposure left limit was
        below ``epsilon``.
    states : tuple[int, ...]
        State label of each matrix axis.
    """

    hazard: StepMatrix
    epsilon: float
    exposure: dict[int, StepCurve]
    counts: StepMatrix
    floor_active: dict[int, tuple[float, ...]]
    states: tuple[int, ...]

    @property
    def times(self) -> np.ndarray:
        return self.hazard.times

    def initial_exposure(self) -> np.ndarray:
        """Exposure vector at time zero, in state axis order."""
        return np.array([self.exposure[s].initial for s in self.states])

    def exposure_left(self) -> np.ndarray:
        """Exposure left limits at each grid time, shape ``(m, S)``."""
        vals = np.column_stack([self.exposure[s].values for s in self.states])
        return np.vstack([self.initial_exposure(), vals])[:-1]


@dataclass(frozen=True)
class OccupationEstimate:
    """Conditional state occupation probabilities on the event grid."""

    times: np.ndarray
    values: np.ndarray
    initial: np.ndarray
    states: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "initial", np.asarray(self.initial, dtype=float))

    def curve(self, state: int) -> StepCurve:
        idx = self.states.index(state)
        return StepCurve(self.times, self.values[:, idx], float(self.initial[idx]))

    @property
    def curves(self) -> dict[int, StepCurve]:
        return {s: self.curve(s) for s in self.states}


def event_grid(sample: Sample) -> np.ndarray:
    """Sorted union of all jump times and censoring times in the sample."""
    return sample.table.grid


def estimate_counts(sample: Sample, w) -> StepMatrix:
    """Cumulative kernel-weighted transition counts on the event grid.

    Entry ``(j, k)`` at time ``t`` is the weight of subjects observed to
    move from state ``j`` to state ``k`` up to ``t``. Jumps past a
    subject's end of follow-up are not counted.
    """
    tab = sample.table
    m, size = len(tab.grid), sample.state_space.size
    cell = (tab.pos * size + tab.src) * size + tab.dst
    weights = np.asarray(w, dtype=float)[tab.subj]
    inc = np.bincount(cell, weights=weights, minlength=m * size * size)
    return StepMatrix(tab.grid, np.cumsum(inc.reshape(m, size, size), axis=0))


def estimate_censoring(sample: Sample, w) -> dict[int, StepCurve]:
    """Per-state cumulative weight of subjects censored there by time t."""
    tab = sample.table
    states = sample.state_space.states
    m, size = len(tab.grid), len(states)
    cell = tab.end_pos[tab.censored] * size + tab.final[tab.censored]
    weights = np.asarray(w, dtype=float)[tab.censored]
    inc = np.bincount(cell, weights=weights, minlength=m * size)
    cum = np.cumsum(inc.reshape(m, size), axis=0)
    return {s: StepCurve(tab.grid, cum[:, i], 0.0) for i, s in enumerate(states)}


def estimate_exposure(
    counts: StepMatrix,
    censoring: dict[int, StepCurve],
    initial,
    states: tuple[int, ...],
) -> dict[int, StepCurve]:
    """Per-state exposure built from the flow decomposition.

    The exposure in a state equals its weight at time zero, minus the
    weight censored there, plus the net weighted count flow in and out.
    ``states`` gives the label of each matrix axis.
    """
    initial = np.asarray(initial, dtype=float)
    grid = counts.times
    d_counts = counts.increments()
    inflow = d_counts.sum(axis=1)
    outflow = d_counts.sum(axis=2)
    out: dict[int, StepCurve] = {}
    for i, s in enumerate(states):
        d_cens = censoring[s].increments()
        d_expo = inflow[:, i] - outflow[:, i] - d_cens
        values = initial[i] + np.cumsum(d_expo)
        out[s] = StepCurve(grid, values, float(initial[i]))
    return out


def nelson_aalen(sample: Sample, weights: WeightVector, epsilon: float) -> HazardEstimate:
    """Conditional cumulative hazard under conditioning ``weights``.

    Each off-diagonal hazard increment at a grid time is the weighted
    count increment divided by the exposure left limit, floored at
    ``epsilon``. Grid times where the floor engaged are recorded per
    state in ``floor_active``.

    Raises
    ------
    ValueError
        If ``epsilon`` is not a finite number > 0.
    NoKernelMass
        If the weights are degenerate: no path carries kernel mass.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon!r}")
    if weights.degenerate:
        raise NoKernelMass("no kernel mass in the conditioning weights")
    w = weights.weights
    states = sample.state_space.states
    grid = event_grid(sample)
    counts = estimate_counts(sample, w)
    censoring = estimate_censoring(sample, w)
    initial = np.bincount(sample.table.init, weights=w, minlength=len(states))
    exposure = estimate_exposure(counts, censoring, initial, states)

    expo_left = np.vstack([initial, np.column_stack([exposure[s].values for s in states])])[:-1]
    denom = np.maximum(expo_left, epsilon)
    d_hazard = counts.increments() / denom[:, :, None]
    diag = np.arange(len(states))
    d_hazard[:, diag, diag] = 0.0
    d_hazard[:, diag, diag] = -d_hazard.sum(axis=2)
    hazard = StepMatrix(grid, np.cumsum(d_hazard, axis=0))

    floor_active = {
        s: tuple(grid[expo_left[:, i] < epsilon]) for i, s in enumerate(states)
    }
    return HazardEstimate(
        hazard=hazard,
        epsilon=float(epsilon),
        exposure=exposure,
        counts=counts,
        floor_active=floor_active,
        states=states,
    )


def product_integral(hazard: StepMatrix, s: float, t: float) -> np.ndarray:
    """Ordered product of ``I + dA(u)`` over grid times ``u`` in ``(s, t]``."""
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    size = hazard.dim
    out = np.eye(size)
    lo = int(np.searchsorted(hazard.times, s, side="right"))
    hi = int(np.searchsorted(hazard.times, t, side="right"))
    inc = hazard.increments()
    eye = np.eye(size)
    for i in range(lo, hi):
        out = out @ (eye + inc[i])
    return out


def aalen_johansen(hazard: HazardEstimate, initial) -> OccupationEstimate:
    """Conditional occupation probabilities from the hazard estimate.

    Runs the forward recursion ``p(t) = p(t-) + p(t-) dA(t)`` over the
    event grid starting from ``initial``. With the generator diagonal
    convention every one-step factor is a stochastic matrix, so the total
    mass of ``initial`` is conserved at every time.

    Cost: one vectorised pass over the m hazard increments marks the live
    steps, those with a nonzero entry; Python work and a vector-matrix
    product happen only there. Between live steps ``p`` holds still, so
    each grid time takes the row of the last live step at or before it,
    indexed by the running count of live steps, or ``initial`` before the
    first. The products are those of a step-by-step walk, in the same
    order, so the values equal that walk's bit for bit.
    """
    initial = np.asarray(initial, dtype=float)
    grid = hazard.hazard.times
    inc = hazard.hazard.increments()
    live = inc.any(axis=(1, 2))
    rows = np.empty((np.count_nonzero(live) + 1, initial.size))
    p = initial.copy()
    rows[0] = p
    for r, step in enumerate(inc[live], start=1):
        rows[r] = p = p + p @ step
    values = rows[np.cumsum(live)]
    return OccupationEstimate(grid, values, initial, hazard.states)


@dataclass(frozen=True)
class FitResult:
    """One full conditional fit at a single evaluation point."""

    x: EvalPoint
    spec: KernelSpec
    bandwidth: float
    weights: WeightVector
    phi: float
    hazard: HazardEstimate
    occupation: OccupationEstimate
    theta: float

    def beyond_theta(self) -> np.ndarray:
        """Grid times past the estimation horizon; computed but flagged."""
        times = self.hazard.times
        return times[times > self.theta]


def fit(
    sample: Sample,
    x,
    spec: KernelSpec | None = None,
    *,
    eta: float = 0.75,
    explicit_bandwidth: float | None = None,
    epsilon: float = 1e-4,
    theta: float | None = None,
) -> FitResult:
    """Convenience pipeline: weights, hazard, occupation, horizon.

    ``x`` may be an :class:`EvalPoint` or a coordinate sequence; ``spec``
    defaults to an epanechnikov kernel in every dimension with no atoms.
    The default horizon is the largest censoring time carrying positive
    weight, falling back to the last event time. An explicit ``theta``
    must be a finite number >= 0, and ``epsilon`` a finite number > 0;
    anything else raises ``ValueError``.
    """
    if theta is not None and not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be a finite number >= 0, got {theta!r}")
    if spec is None:
        spec = KernelSpec.for_dims(sample.covariate_dim)
    if not isinstance(x, EvalPoint):
        x = spec.eval_point(x)
    schedule = BandwidthSchedule.for_point(x, eta=eta, explicit=explicit_bandwidth)
    a = bandwidth(schedule, len(sample))
    weights = nw_weights(sample, x, spec, a)
    try:
        hazard = nelson_aalen(sample, weights, epsilon)
    except NoKernelMass:
        raise NoKernelMass(f"no kernel mass at x={tuple(x.coords)}") from None
    occupation = aalen_johansen(hazard, hazard.initial_exposure())
    if theta is None:
        tab = sample.table
        censor_times = tab.end_time[(weights.weights > 0.0) & tab.censored]
        if censor_times.size:
            theta = censor_times.max()
        else:
            theta = float(hazard.times[-1]) if hazard.times.size else 0.0
    phi = phi_estimate(spec, weights.density_value, x.atom_flags)
    return FitResult(
        x=x,
        spec=spec,
        bandwidth=a,
        weights=weights,
        phi=phi,
        hazard=hazard,
        occupation=occupation,
        theta=float(theta),
    )
