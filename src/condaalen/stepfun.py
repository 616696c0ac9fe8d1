"""Right-continuous step functions on [0, inf).

Scalar curves and square-matrix valued curves share the same time
convention: ``values[i]`` is the value held on ``[times[i], times[i+1])``
and ``initial`` is the value held on ``[0, times[0])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class StepCurve:
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

    def __post_init__(self):
        t = _as_times(self.times)
        v = np.asarray(self.values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("values must match times in length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        """Value at time ``t`` (right-continuous). Accepts scalars or arrays."""
        return self._lookup(t, "right")

    def left(self, t):
        """Left limit at time ``t``, i.e. the value held just before ``t``."""
        return self._lookup(t, "left")

    def _lookup(self, t, side):
        if self.times.size == 0:
            out = np.full(np.shape(t), self.initial)
        else:
            idx = np.searchsorted(self.times, t, side=side) - 1
            out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], self.initial)
        return float(out) if np.isscalar(t) else out

    def increments(self) -> np.ndarray:
        """Jump sizes at each time, relative to the previous plateau."""
        if self.times.size == 0:
            return np.empty(0)
        return np.diff(self.values, prepend=self.initial)


@dataclass(frozen=True)
class StepMatrix:
    """Square-matrix valued right-continuous step function.

    ``values[i]`` is an ``(S, S)`` matrix held on ``[times[i], times[i+1])``;
    ``initial`` (default zero) is held on ``[0, times[0])``.
    """

    times: np.ndarray
    values: np.ndarray
    initial: np.ndarray = field(default=None)

    def __post_init__(self):
        t = _as_times(self.times)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != t.size or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (len(times), S, S)")
        init = self.initial
        if init is None:
            init = np.zeros(v.shape[1:]) if v.size else np.zeros((0, 0))
        init = np.asarray(init, dtype=float)
        if v.size and init.shape != v.shape[1:]:
            raise ValueError("initial must match the matrix shape")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "initial", init)

    @property
    def dim(self) -> int:
        return self.initial.shape[0] if self.values.size == 0 else self.values.shape[1]

    def at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.initial if idx < 0 else self.values[idx]

    def left(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="left")) - 1
        return self.initial if idx < 0 else self.values[idx]

    @cached_property
    def _rows(self) -> np.ndarray:
        """The rows where it may move, as ``nelson_aalen`` sets them, or from its increments."""
        with np.errstate(invalid="ignore"):  # inf - inf is a nonzero increment, NaN
            rows = np.flatnonzero((self.increments() != 0.0).any(axis=(1, 2)))
        return rows.astype(np.int32 if self.times.size < 2**31 else np.intp)

    def increments(self) -> np.ndarray:
        """Per-time jump matrices, shape ``(len(times), S, S)``."""
        if self.times.size == 0:
            return self.values.copy()
        out = np.empty_like(self.values)
        out[0] = self.values[0] - self.initial
        np.subtract(self.values[1:], self.values[:-1], out=out[1:])
        return out
