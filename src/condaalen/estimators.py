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

Conditioning leaves many subjects with zero weight, so ``nelson_aalen``
computes only on the live rows, the grid times where a jump or a
censoring of nonzero weight happens, and on the occurring cells, the
(from, to) transitions among those jumps. Every other row and cell
would only add exact zeros, so the result has the bits of the dense
pass over the whole ``(m, S, S)`` grid, which the tests keep as the
reference. It records on the hazard's ``StepMatrix`` the rows where a
subject of nonzero weight jumps; the hazard is constant between them,
so ``aalen_johansen`` runs its recursion on those rows alone.

Every fitted quantity is a step function held on its knots, the rows of
those passes, with an int32 index from each grid row to its knot (see
:mod:`~condaalen.stepfun`); ``values`` spreads them over the grid only
when it is read. The hazard and the counts keep the jump rows alone, and
of each row only the cells that may move: the occurring transitions, and
for the hazard the diagonal. The exposures, which also move where a
subject is censored, keep every live row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .kernels import (
    KernelSpec,
    NoKernelMass,
    WeightVector,
    bandwidth,
    nw_weights,
    phi_estimate,
)
from .stepfun import StepCurve, StepMatrix, _as_times, _Checked, _index_dtype, _Knots


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


@dataclass(frozen=True, init=False, eq=False)
class OccupationEstimate(_Knots):
    """Conditional state occupation probabilities on the event grid.

    ``values[i, a]`` is the probability of state ``states[a]`` on
    ``[times[i], times[i+1])``; ``initial`` holds them on ``[0, times[0])``.
    """

    times: np.ndarray
    values: np.ndarray
    initial: np.ndarray
    states: tuple[int, ...]

    def __init__(self, times, values, initial, states):
        t = _as_times(times)
        v = np.asarray(values, dtype=float)
        initial = np.asarray(initial, dtype=float)
        if v.shape != (t.size, len(states)):
            raise ValueError("values must have shape (len(times), len(states))")
        if initial.shape != (len(states),):
            raise ValueError("initial must hold one value per state")
        self._hold(t, v)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "states", states)

    def curve(self, state: int) -> StepCurve:
        idx = self.states.index(state)
        return StepCurve.on_knots(
            self.times, self._knots[:, idx], self._index, float(self.initial[idx])
        )

    @property
    def curves(self) -> dict[int, StepCurve]:
        return {s: self.curve(s) for s in self.states}


def event_grid(sample: Sample) -> np.ndarray:
    """Sorted union of all jump times and censoring times in the sample."""
    return sample.table.grid


def _slice_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """``a.sum(axis)`` over a short axis as slice adds, ``((0.0 + a_0) + a_1) + ...``.

    This is numpy's order for the (m, S, S) arrays here, so the bits
    agree, signed zeros included: the leading ``0.0`` turns a ``-0.0`` sum
    into ``+0.0`` as numpy's reduction does (a differential test pins
    both). Whole-slice adds take a fraction of the time of the strided
    reduction. Along the contiguous last axis numpy adds 8 or more
    entries in pairwise blocks instead, so such a sum stays with numpy,
    on a C-ordered copy where ``a`` is a strided view: numpy adds a
    strided axis entry by entry.
    """
    if axis == a.ndim - 1 and a.shape[axis] >= 8:
        return np.ascontiguousarray(a).sum(axis=axis)
    total = 0.0
    for part in np.moveaxis(a, axis, 0):
        total = total + part
    return total


def _generator(off: np.ndarray) -> np.ndarray:
    """Set the diagonal of each ``(S, S)`` slice to its negative off-diagonal row sum."""
    diag = np.arange(off.shape[-1])
    off[..., diag, diag] = 0.0
    off[..., diag, diag] = -_slice_sum(off, off.ndim - 1)
    return off


def _outflow(values: np.ndarray, src: np.ndarray, dst: np.ndarray, size: int):
    """Source states and their outflow sums, ``_slice_sum(full, 2)`` at those rows.

    ``full`` is the ``(L, S, S)`` array that holds ``values[c]`` at cell
    ``(src[c], dst[c])`` and zeros elsewhere; a state that is no source
    sums to ``0.0`` there. Each source state's ``(L, S)`` row block goes
    through ``_slice_sum`` whole, zeros included, so a sum over 8 or more
    states keeps numpy's pairwise blocks.
    """
    sources, row = np.unique(src, return_inverse=True)
    block = np.zeros((size, sources.size, values.shape[1]))
    block[dst, row] = values
    return sources, _slice_sum(block.transpose(1, 2, 0), 2)


def nelson_aalen(sample: Sample, weights: WeightVector, epsilon: float) -> HazardEstimate:
    """Conditional cumulative hazard under conditioning ``weights``.

    One pass over ``sample.table``: weighted bincounts of the jumps per
    (grid time, from, to) cell, of the censored subjects per (end time,
    final state) cell and of the initial states. The exposure follows
    the flow identity, initial mass plus inflow minus outflow minus
    censoring.
    Each off-diagonal hazard increment is the count increment over the
    exposure left limit floored at ``epsilon``; the grid times where the
    left limit was below ``epsilon`` are recorded per state in
    ``floor_active``. Count and censoring increments are differences of
    the cumulative arrays, not the raw bincounts, which differ from them
    in the last bits.

    The pass runs on the live rows and the occurring cells only. A live
    row is a grid time with a jump or a censoring of nonzero weight; a
    jump row is one with a jump of nonzero weight, and an occurring cell
    is a (from, to) pair among those jumps. Counts and hazards are kept
    cell major, ``(C, J + 1)`` for C cells and J jump rows, and exposures
    state major, ``(S, L + 1)`` for L live rows, so each cumulative sum
    runs along contiguous memory. Column ``k`` holds the values after the
    ``k``-th such row; column 0, the prefix, holds those before the first
    one: counts 0.0, off-diagonal hazard 0.0, diagonal hazard -0.0 and
    exposure ``initial``. These columns are the knots of the returned
    step functions, which each grid row reads at its rank among the jump
    rows or, for the exposures, the live rows: two int32 indexes, each
    shared. At a censoring-only row the counts and the hazard would add
    exact zeros, so they keep no column there. They store only their
    cells, the occurring ones and, for the hazard, the S diagonal
    entries; every other cell is +0.0 throughout. Of the grid's length,
    the result holds only the two indexes.

    The bits are those of the dense pass over every row and cell, which
    the tests keep as the reference. A skipped row or cell would only add
    exact zeros there: +0.0 to the counts, the off-diagonal hazard and
    the exposure, -0.0 to the diagonal hazard. ``x + 0.0 == x`` holds
    for every value those three take, since with weights >= 0 none of
    them is ever -0.0, and ``x + -0.0 == x`` for every ``x``; the
    diagonal's leading rows, -0.0 in the dense pass, are what the prefix
    column reproduces. Outflows and the generator diagonal keep
    ``_slice_sum``'s association over each source state's whole row,
    zeros included, which matters from 8 states on, where numpy sums in
    pairwise blocks (see ``_outflow``). Inflows are slice adds down the
    source axis, where an absent cell is an exact zero that may be
    skipped.

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

    # only jumps and censorings of nonzero weight add more than exact zeros
    wj = w[tab.subj]
    moved = np.flatnonzero(wj != 0.0)
    pos = tab.pos[moved]
    cell = tab.src[moved] * size + tab.dst[moved]
    censored = np.flatnonzero(tab.censored & (w != 0.0))
    end = tab.end_pos[censored]
    jump = np.zeros(m, dtype=bool)
    jump[pos] = True
    rows = np.flatnonzero(jump).astype(_index_dtype(m))  # where the hazard moves
    moves = np.cumsum(jump, dtype=rows.dtype)  # each grid row's rank among the jump rows
    live = jump
    live[end] = True
    rank = np.cumsum(live)  # each grid row's column: the live rows up to it
    width = 1 + int(rank[-1])
    knot = rank[rows] - 1  # each jump row's left column among the live ones

    present = np.bincount(cell, minlength=size * size) > 0
    cells = np.flatnonzero(present)
    src, dst = np.divmod(cells, size)
    slot = np.cumsum(present) - 1  # each cell's row among the occurring ones
    # the counts move at the jump rows only, so their columns are the prefix and
    # those; each cumulative sum overwrites its bincount, which is never read
    # again; a bincount of nothing comes out int
    steps = 1 + rows.size
    counts = np.bincount(
        slot[cell] * steps + moves[pos], weights=wj[moved], minlength=cells.size * steps
    ).reshape(cells.size, steps).astype(float, copy=False)
    d_counts = np.diff(np.cumsum(counts, axis=1, out=counts), axis=1)

    # the flow, inflow minus outflow minus censoring, summed in place into expo;
    # inflow and outflow are exact zeros off the jump rows
    initial = np.bincount(tab.init, weights=w, minlength=size)
    expo = np.zeros((size, width))
    moved_flow = np.zeros((size, rows.size))
    for c, b in enumerate(dst):
        moved_flow[b] += d_counts[c]
    sources, outflow = _outflow(d_counts, src, dst, size)
    moved_flow[sources] -= outflow
    expo[:, 1 + knot] = moved_flow
    flow = expo[:, 1:]
    cens = np.bincount(
        tab.final[censored] * width + rank[end], weights=w[censored], minlength=size * width
    ).reshape(size, width)
    flow -= np.diff(np.cumsum(cens, axis=1, out=cens), axis=1)
    np.cumsum(flow, axis=1, out=flow)
    expo += initial[:, None]

    # the hazard keeps the counts' columns and cells, and the diagonal
    d_hazard = d_counts  # divided in place
    d_hazard /= np.maximum(expo[:, knot], epsilon)[src]
    diag = np.arange(size) * (size + 1)
    stored = np.union1d(cells, diag)
    col = np.searchsorted(stored, np.concatenate([cells, diag]))
    hazard = np.zeros((steps, stored.size))
    hazard[:, col[cells.size :]] = -0.0
    for c, k in enumerate(col[: cells.size]):
        np.cumsum(d_hazard[c], out=hazard[1:, k])
    _, outflow = _outflow(d_hazard, src, dst, size)
    for a, series in zip(sources, outflow):
        np.cumsum(-series, out=hazard[1:, col[cells.size + a]])

    below = np.take(expo < epsilon, rank - live, axis=1)  # at each row's left limit
    index = rank.astype(_index_dtype(m))
    grid = _Checked(grid).times  # one check of the grid for all five step functions
    zero = np.zeros((size, size))
    hazard = StepMatrix.on_knots(grid, hazard, moves, zero, _cells=stored, _rows=rows)
    return HazardEstimate(
        hazard=hazard,
        epsilon=float(epsilon),
        exposure={
            s: StepCurve.on_knots(grid, expo[i], index, float(initial[i]))
            for i, s in enumerate(states)
        },
        counts=StepMatrix.on_knots(grid, counts.T.copy(), moves, zero.copy(), _cells=cells),
        floor_active={s: tuple(grid[below[i]].tolist()) for i, s in enumerate(states)},
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

    Cost: a step with ``dA = 0`` leaves ``p`` alone, so the recursion
    reads only the rows in ``hazard.hazard._rows``, L of the m grid rows.
    Their increments are the differences of the cumulative hazard at those
    rows and the rows before them (``hazard.hazard.initial`` before row 0),
    read from its knots through its index, in its stored cells only: the
    bits of ``hazard.hazard.increments()`` there, where every other cell is
    +0.0. The nonzero entries are found among the stored cells. In
    continuous time no two transitions share a time, so a live step has one
    nonzero row j, and ``p @ dA`` in column c is ``p_j * dA_jc`` plus exact
    zeros. The recursion therefore updates just those entries as Python
    floats, ``p_c + p_j * dA_jc``, with ``p_j`` read before the step (row
    j's columns are visited from j + 1 round to j, so the diagonal comes
    last). That is the value of ``p + p @ dA`` in any summation order,
    with or without FMA. A step with two or more nonzero rows, a tie
    across source states, keeps ``p + p @ dA`` in numpy, because a BLAS
    column sum of several nonzero products need not match any fixed
    order of Python additions. The first live step also runs in numpy:
    it turns a ``-0.0`` in ``initial`` into ``+0.0`` as the product does.
    A numpy step scatters its stored increments into a zero ``(S, S)``
    matrix. An ``(L + 1, S)`` table then holds ``initial`` and, per state,
    the value of its last write at or before each of the L rows (a running
    maximum over write positions). The table is the result's knots, and
    each grid row's rank among the L rows is its index: the hazard's own
    index where that is the same array, as on a fitted hazard. The pass
    allocates arrays of L rows and one int per grid row, no ``(m, S)``
    array. The values equal those of a step-by-step ``p + p @ dA`` walk
    bit for bit while the hazard and ``p`` stay finite.

    Raises
    ------
    ValueError
        If ``initial`` does not hold one value per state.
    """
    initial = np.asarray(initial, dtype=float)
    size = len(hazard.states)
    if initial.shape != (size,):
        raise ValueError(
            f"initial must have length {size}, one value per state, got shape {initial.shape}"
        )
    grid = hazard.hazard.times
    m = len(grid)
    rows = hazard.hazard._rows
    knots = hazard.hazard._knots
    index = hazard.hazard._index
    stored = hazard.hazard._cells
    width = stored.size
    inc = np.take(knots, index[rows], axis=0)
    before = np.take(knots, index[rows - 1], axis=0)  # row -1 reads the last row: replaced
    if rows.size and rows[0] == 0:
        before[0] = hazard.hazard.initial.reshape(-1)[stored]
    inc -= before
    del before

    # the stored cells in walk order, row j's from column j + 1 round to j, and
    # every nonzero entry as (step, cell) in that order
    axis = np.arange(size)
    cycle = (axis[:, None] * size + (axis[:, None] + 1 + axis) % size).ravel()
    column = np.full(size * size, -1)
    column[stored] = np.arange(width)
    order = cycle[column[cycle] >= 0]
    inc = inc[:, column[order]]
    flat = np.flatnonzero(inc != 0.0)
    step = flat // width
    cell = order[flat - step * width]
    src = cell // size
    # a step with a second source (a tie) and the first live step run in numpy
    tie = (step[1:] == step[:-1]) & (src[1:] != src[:-1])
    full_steps = np.unique(np.concatenate([step[:1], step[1:][tie]]))
    full = np.zeros(rows.size, dtype=bool)
    full[full_steps] = True
    keep = ~full[step]
    step, src, cell = step[keep], src[keep], cell[keep]
    col = cell - src * size
    rate = np.take(inc, flat[keep])
    full_inc = np.zeros((full_steps.size, size * size))
    full_inc[:, order] = inc[full_steps]
    full_inc = full_inc.reshape(-1, size, size)
    del inc, flat, keep, cell  # the loop's lists take their place
    at = np.searchsorted(step, full_steps)

    # a full step is one loop entry: source -1, then its index among the full steps
    entries = zip(
        np.insert(src, at, -1).tolist(),
        np.insert(col, at, np.arange(full_steps.size)).tolist(),
        np.insert(rate, at, 0.0).tolist(),
    )
    del src, rate
    p = initial.tolist()
    out = []
    for j, c, s in entries:
        if j >= 0:
            p[c] = v = p[c] + p[j] * s
            out.append(v)
        else:
            vec = np.array(p)
            p = (vec + vec @ full_inc[c]).tolist()
            out += p
    del entries  # and its lists

    table = np.concatenate([initial, np.fromiter(out, float, len(out))])
    del out
    # table[size + w] was written at (step, column); a full step writes every column
    at = np.repeat(at, size)
    pos = np.zeros((rows.size + 1, size), dtype=np.intp)
    pos[0] = axis
    pos[
        1 + np.insert(step, at, np.repeat(full_steps, size)),
        np.insert(col, at, np.tile(axis, full_steps.size)),
    ] = np.arange(size, table.size)
    del step, col
    table = table[np.maximum.accumulate(pos, axis=0, out=pos)]
    rank = np.zeros(m, dtype=rows.dtype)  # each grid row's table row: the rows up to it
    rank[rows] = 1
    np.cumsum(rank, out=rank)
    if np.array_equal(rank, index):  # a fitted hazard's index: the two share it
        rank = index
    return OccupationEstimate.on_knots(grid, table, rank, initial, states=hazard.states)


@dataclass(frozen=True)
class FitResult:
    """One full conditional fit at a single evaluation point."""

    x: tuple[float, ...]
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

    ``x`` is a coordinate sequence; a coordinate on one of ``spec``'s
    declared atoms is matched exactly (see :meth:`KernelSpec.atom_flags`).
    ``spec`` defaults to an epanechnikov kernel in every dimension with
    no atoms.
    The default horizon is the largest censoring time carrying positive
    weight, falling back to the last event time. An explicit ``theta``
    must be a finite number >= 0, and ``epsilon`` a finite number > 0;
    anything else raises ``ValueError``.
    """
    if theta is not None and not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be a finite number >= 0, got {theta!r}")
    if spec is None:
        spec = KernelSpec.for_dims(sample.covariate_dim)
    x = spec.eval_point(x)
    flags = spec.atom_flags(x)
    a = bandwidth(len(sample), flags.count(False), eta=eta, explicit=explicit_bandwidth)
    weights = nw_weights(sample, x, spec, a)
    try:
        hazard = nelson_aalen(sample, weights, epsilon)
    except NoKernelMass:
        raise NoKernelMass(f"no kernel mass at x={x}") from None
    occupation = aalen_johansen(hazard, hazard.initial_exposure())
    if theta is None:
        tab = sample.table
        censor_times = tab.end_time[(weights.weights > 0.0) & tab.censored]
        # a sample's grid holds a time per subject: its censoring or absorption
        theta = censor_times.max() if censor_times.size else hazard.times[-1]
    phi = phi_estimate(spec, weights.density_value, flags)
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
