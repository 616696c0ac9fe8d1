"""Right-continuous step functions on [0, inf).

Scalar curves and square-matrix valued curves share the same time
convention: ``values[i]`` is the value held on ``[times[i], times[i+1])``
and ``initial`` is the value held on ``[0, times[0])``.

Each is stored on its knots, the distinct rows it holds, with the int32
start row of each: knot ``k`` is held from row ``starts[k]`` up to row
``starts[k + 1]`` or the end, and ``starts[0] = 0``. A fitted quantity
moves at few of the grid times where the kernel conditions, so its knots
are far fewer than its times, and it keeps nothing of the grid's length
but the times; the first knot's run is empty when the first move is at
row 0, and no other run is. A hand-built one keeps its rows as given,
each starting at its own row. A matrix also keeps only its stored cells,
the flat positions ``_cells`` of the entries that may be nonzero, and
every other entry is +0.0 at every time: a fitted hazard stores the
transitions that occur and the diagonal, a hand-built matrix all
``S * S`` cells. ``values`` is the dense view, the knots scattered into
+0.0 frames and repeated over their runs, spread anew at each read and
never cached: whoever holds many fits holds their knots only. A lookup
finds the time's row, then that row's knot among the starts, and returns
the bits of the dense row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class _Checked:
    """Times that ``_as_times`` has passed, handed back by it without a second pass.

    Several curves built on one grid check it once: ``StepCurve(grid, ...)``
    with ``grid = _Checked(times)`` stores ``grid.times`` unchecked.
    """

    def __init__(self, times):
        self.times = _as_times(times)


def _as_times(times) -> np.ndarray:
    if isinstance(times, _Checked):
        return times.times
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if t.size and not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")
    return t


def _index_dtype(size: int):
    return np.int32 if size < 2**31 else np.intp


class _Knots:
    """The storage of the step types: knot rows, and the grid row where each starts.

    A subclass is a frozen dataclass whose ``values`` field is the property
    below, so ``dataclasses.replace`` reads the dense view and makes a copy
    in the hand-built form.
    """

    @property
    def values(self) -> np.ndarray:
        """Value held from each time on, a fresh array spread from the knots."""
        runs = np.diff(self._starts, append=self.times.size)
        return np.repeat(self._spread(self._knots), runs, axis=0)

    def _spread(self, stored: np.ndarray) -> np.ndarray:
        """Knot rows as values; a matrix scatters its stored cells into frames."""
        return stored

    def _hold(self, times: np.ndarray, knots: np.ndarray, starts=None) -> None:
        if starts is None:
            starts = np.arange(times.size, dtype=_index_dtype(times.size))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_starts", starts)

    @classmethod
    def on_knots(cls, times, knots, starts, initial, **fields):
        """The step function holding ``knots[k]`` from row ``starts[k]`` on, built unchecked.

        ``starts`` increases from ``starts[0] = 0``, except that the first
        knot's run may be empty, and then that knot is never read. A matrix
        also takes ``_cells``, the increasing flat positions of its knots'
        columns.
        """
        self = object.__new__(cls)
        self._hold(times, knots, starts)
        for name, value in dict(fields, initial=initial).items():
            object.__setattr__(self, name, value)
        return self

    def left(self, t):
        """Left limit at time ``t``, the value held just before it; ``t`` may be an array."""
        return self._lookup(t, "left")

    def _lookup(self, t, side: str):
        """Value at ``t``, or just before it on side ``"left"``; a float on a curve at a scalar."""
        if np.isnan(t).any():
            raise ValueError("a step function has no value at a NaN time")
        pos = np.searchsorted(self.times, t, side=side) - 1
        if self.times.size == 0:
            out = np.full(np.shape(t) + np.shape(self.initial), self.initial)
        else:
            # the last knot starting at or before the row: of two at one row, the later
            knot = np.searchsorted(self._starts, np.maximum(pos, 0), side="right") - 1
            row = self._spread(np.take(self._knots, knot, axis=0))
            before = np.reshape(pos < 0, np.shape(pos) + (1,) * np.ndim(self.initial))
            out = np.where(before, self.initial, row)
        return float(out) if out.ndim == 0 and np.isscalar(t) else out


@dataclass(frozen=True, init=False, eq=False)
class StepCurve(_Knots):
    """Scalar right-continuous step function.

    Parameters
    ----------
    times : array_like
        Strictly increasing jump locations.
    values : array_like
        Value held on ``[times[i], times[i+1])``.
    initial : float
        Value held on ``[0, times[0])``, a real number, stored as a float.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __init__(self, times, values, initial: float = 0.0):
        t = _as_times(times)
        v = np.asarray(values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("values must match times in length")
        given = np.asarray(initial)
        if given.ndim != 0 or given.dtype.kind not in "biuf":
            raise ValueError(f"initial must be a real number, got {initial!r}")
        self._hold(t, v)
        object.__setattr__(self, "initial", float(given))

    def __call__(self, t):
        """Value at time ``t`` (right-continuous). Accepts scalars or arrays."""
        return self._lookup(t, "right")

    def increments(self) -> np.ndarray:
        """Jump sizes at each time, relative to the previous plateau."""
        if self.times.size == 0:
            return np.empty(0)
        return np.diff(self.values, prepend=self.initial)


@dataclass(frozen=True, init=False, eq=False)
class StepMatrix(_Knots):
    """Square-matrix valued right-continuous step function.

    ``values[i]`` is an ``(S, S)`` matrix held on ``[times[i], times[i+1])``;
    ``initial`` (default zero) is held on ``[0, times[0])``.
    """

    times: np.ndarray
    values: np.ndarray
    initial: np.ndarray = None

    def __init__(self, times, values, initial=None):
        t = _as_times(times)
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[0] != t.size or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (len(times), S, S)")
        initial = np.zeros(v.shape[1:]) if initial is None else np.asarray(initial, dtype=float)
        if initial.shape != v.shape[1:]:
            raise ValueError("initial must match the matrix shape")
        cells = v.shape[1] * v.shape[2]
        self._hold(t, v.reshape(t.size, cells))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "_cells", np.arange(cells))

    @property
    def dim(self) -> int:
        return self.initial.shape[0]

    def at(self, t) -> np.ndarray:
        """Matrix at time ``t`` (right-continuous); an array ``t`` stacks one per entry."""
        return self._lookup(t, "right")

    def _spread(self, stored: np.ndarray) -> np.ndarray:
        """Stored cells ``(..., C)`` as matrices ``(..., S, S)``, +0.0 in every other cell."""
        size = self.dim
        if self._cells.size < size * size:
            frame = np.zeros(stored.shape[:-1] + (size * size,))
            frame[..., self._cells] = stored
            stored = frame
        return stored.reshape(stored.shape[:-1] + (size, size))

    @cached_property
    def _rows(self) -> np.ndarray:
        """The rows where it may move: a fitted hazard's knot starts after the prefix,
        as ``nelson_aalen`` sets them, or else the rows of its nonzero increments."""
        with np.errstate(invalid="ignore"):  # inf - inf is a nonzero increment, NaN
            rows = np.flatnonzero((self.increments() != 0.0).any(axis=(1, 2)))
        return rows.astype(_index_dtype(self.times.size))

    def increments(self) -> np.ndarray:
        """Per-time jump matrices, shape ``(len(times), S, S)``."""
        values = self.values
        if self.times.size == 0:
            return values
        out = np.empty_like(values)
        out[0] = values[0] - self.initial
        np.subtract(values[1:], values[:-1], out=out[1:])
        return out
