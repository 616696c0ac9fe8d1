"""Right-continuous step functions on [0, inf).

Scalar curves and square-matrix valued curves share the same time
convention: ``values[i]`` is the value held on ``[times[i], times[i+1])``
and ``initial`` is the value held on ``[0, times[0])``.

Each is stored on its knots, the distinct rows it holds, with an int32
index that gives each time's row among them. A fitted quantity moves at
few of the grid times where the kernel conditions, so its knots are far
fewer than its times; a hand-built one keeps its rows as given, with the
identity as its index. ``values`` is the dense view, ``np.take(knots,
index)``, spread anew at each read and never cached: whoever holds many
fits holds their knots only. Lookups read the knots through the index and
return the bits of the dense rows.
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
    """The storage of the step types: knot rows, and each time's row among them.

    A subclass is a frozen dataclass whose ``values`` field is the property
    below, so ``dataclasses.replace`` reads the dense view and makes a copy
    in the hand-built form.
    """

    @property
    def values(self) -> np.ndarray:
        """Value held from each time on, a fresh array spread from the knots."""
        return np.take(self._knots, self._index, axis=0)

    def _hold(self, times: np.ndarray, knots: np.ndarray, index=None) -> None:
        if index is None:
            index = np.arange(times.size, dtype=_index_dtype(times.size))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_index", index)

    @classmethod
    def on_knots(cls, times, knots, index, initial, **fields):
        """The step function with ``values[i] = knots[index[i]]``, built unchecked."""
        self = object.__new__(cls)
        self._hold(times, knots, index)
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
            row = np.take(self._knots, np.take(self._index, np.maximum(pos, 0)), axis=0)
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
        Value held on ``[0, times[0])``.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __init__(self, times, values, initial: float = 0.0):
        t = _as_times(times)
        v = np.asarray(values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("values must match times in length")
        self._hold(t, v)
        object.__setattr__(self, "initial", initial)

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
        if initial is None:
            initial = np.zeros(v.shape[1:]) if v.size else np.zeros((0, 0))
        initial = np.asarray(initial, dtype=float)
        if v.size and initial.shape != v.shape[1:]:
            raise ValueError("initial must match the matrix shape")
        self._hold(t, v)
        object.__setattr__(self, "initial", initial)

    @property
    def dim(self) -> int:
        return self._knots.shape[1] if self._knots.size else self.initial.shape[0]

    def at(self, t) -> np.ndarray:
        """Matrix at time ``t`` (right-continuous); an array ``t`` stacks one per entry."""
        return self._lookup(t, "right")

    @cached_property
    def _rows(self) -> np.ndarray:
        """The rows where it may move, as ``nelson_aalen`` sets them, or from its increments."""
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
