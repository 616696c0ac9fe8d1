"""Conditional cumulative hazard and state occupation estimators.

All estimators work on one shared event-time grid, the sorted union of
every observed jump time and censoring time in the sample. The grid and
every per-jump and per-subject index come from ``Sample.table`` (see
:class:`~condaalen.data.EventTable`); the estimators only aggregate its
arrays. Ties across subjects are aggregated at a single grid point. Left
limits at a grid point are the values held on the preceding inter-event
interval.

A hazard increment is the kernel-weighted count increment over the
kernel-weighted exposure left limit, floored at ``epsilon``. The exposure
comes from the flow identity (Andersen, Borgan, Gill & Keiding 1993):
initial mass, plus inflow, minus outflow, minus censoring. The count
and censoring increments are differences of their cumulative arrays,
never the raw weighted sums those were built from; the two differ in the
last bits, which the 17-digit CLI output shows.

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


def nelson_aalen(sample: Sample, weights: WeightVector, epsilon: float) -> HazardEstimate:
    """Conditional cumulative hazard under conditioning ``weights``.

    One pass over ``sample.table``: weighted bincounts of the jumps per
    (grid time, from, to) cell, of the censored subjects per (end time,
    final state) cell and of the initial states. The exposure follows
    the flow identity, initial mass plus inflow minus outflow minus
    censoring; jumps past a subject's end of follow-up are not counted.
    Each off-diagonal hazard increment is the count increment over the
    exposure left limit floored at ``epsilon``; the grid times where the
    left limit was below ``epsilon`` are recorded per state in
    ``floor_active``. Count and censoring increments are differences of
    the cumulative arrays, not the raw bincounts, which differ from them
    in the last bits.

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
    tab = sample.table
    states = sample.state_space.states
    grid = event_grid(sample)
    m, size = len(grid), len(states)

    # each cumulative sum overwrites its bincount, which is never read again
    jump_cell = (tab.pos * size + tab.src) * size + tab.dst
    jumps = np.bincount(jump_cell, weights=w[tab.subj], minlength=m * size * size)
    jumps = jumps.reshape(m, size, size)
    counts = StepMatrix(grid, np.cumsum(jumps, axis=0, out=jumps))
    d_counts = counts.increments()

    cens_cell = tab.end_pos[tab.censored] * size + tab.final[tab.censored]
    cens = np.bincount(cens_cell, weights=w[tab.censored], minlength=m * size).reshape(m, size)
    d_cens = np.diff(np.cumsum(cens, axis=0, out=cens), axis=0, prepend=0.0)

    initial = np.bincount(tab.init, weights=w, minlength=size)
    expo = initial + np.cumsum(d_counts.sum(axis=1) - d_counts.sum(axis=2) - d_cens, axis=0)
    expo_left = np.vstack([initial, expo])[:-1]

    d_hazard = d_counts  # divided in place: one (m, S, S) array fewer at the peak
    d_hazard /= np.maximum(expo_left, epsilon)[:, :, None]
    diag = np.arange(size)
    d_hazard[:, diag, diag] = 0.0
    d_hazard[:, diag, diag] = -d_hazard.sum(axis=2)

    return HazardEstimate(
        hazard=StepMatrix(grid, np.cumsum(d_hazard, axis=0)),
        epsilon=float(epsilon),
        exposure={
            s: StepCurve(grid, expo[:, i], float(initial[i])) for i, s in enumerate(states)
        },
        counts=counts,
        floor_active={
            s: tuple(grid[expo_left[:, i] < epsilon]) for i, s in enumerate(states)
        },
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
    An :class:`EvalPoint` whose atom flags disagree with ``spec``'s
    declared atoms raises ``ValueError`` naming the dimension.
    The default horizon is the largest censoring time carrying positive
    weight, falling back to the last event time. An explicit ``theta``
    must be a finite number >= 0, and ``epsilon`` a finite number > 0;
    anything else raises ``ValueError``.
    """
    if theta is not None and not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be a finite number >= 0, got {theta!r}")
    if spec is None:
        spec = KernelSpec.for_dims(sample.covariate_dim)
    if isinstance(x, EvalPoint):
        expected = spec.eval_point(x.coords).atom_flags
        for dim, (flag, atom) in enumerate(zip(x.atom_flags, expected), start=1):
            if flag != atom:
                raise ValueError(
                    f"atom flag of dimension {dim} is {flag}, but x={x.coords[dim - 1]!r} "
                    f"{'is' if atom else 'is not'} a declared atom of that dimension"
                )
    else:
        x = spec.eval_point(x)
    a = bandwidth(len(sample), x.d_continuous, eta=eta, explicit=explicit_bandwidth)
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
