"""Product kernels, bandwidth schedule, and conditioning weights.

Conditioning on a covariate point is done through normalized
Nadaraya-Watson weights built from a product kernel. Coordinates sitting
on a declared atom of the covariate distribution are matched exactly
instead of being smoothed; atom matching uses exact equality of the
parsed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Sample

_KERNELS = ("epanechnikov", "triangular", "uniform")

# closed forms of the squared L2 norm on [-1, 1]
_L2_NORM = {"epanechnikov": 0.6, "triangular": 2.0 / 3.0, "uniform": 0.5}


class NoKernelMass(ValueError):
    """No sample path carries kernel mass at the evaluation point."""


@dataclass(frozen=True)
class KernelSpec:
    """Per-dimension kernel choice and declared atom sets.

    Parameters
    ----------
    kernels : tuple of str
        Kernel id per covariate dimension, each one of ``epanechnikov``,
        ``triangular``, ``uniform``.
    atoms : tuple of tuple of float
        Declared atoms of each marginal covariate distribution, finite
        numbers; empty tuples for purely continuous coordinates.
    """

    kernels: tuple[str, ...]
    atoms: tuple[tuple[float, ...], ...] = field(default=None)

    def __post_init__(self):
        kernels = tuple(str(k) for k in self.kernels)
        for k in kernels:
            if k not in _KERNELS:
                raise ValueError(f"unknown kernel id {k!r}")
        atoms = self.atoms
        if atoms is None:
            atoms = tuple(() for _ in kernels)
        atoms = tuple(tuple(float(v) for v in a) for a in atoms)
        if len(atoms) != len(kernels):
            raise ValueError("atoms must declare one set per dimension")
        if not all(math.isfinite(v) for a in atoms for v in a):
            raise ValueError(f"atoms must be finite numbers, got {atoms!r}")
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return len(self.kernels)

    @classmethod
    def for_dims(cls, dim: int, kernel: str = "epanechnikov", atoms=None) -> KernelSpec:
        """Spec with one kernel id shared across ``dim`` dimensions."""
        return cls((kernel,) * dim, atoms)

    def eval_point(self, coords) -> tuple[float, ...]:
        """An evaluation point: ``coords`` as finite floats, one per dimension."""
        coords = tuple(float(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"evaluation point {coords!r} has a non-finite coordinate")
        return coords

    def atom_flags(self, coords) -> tuple[bool, ...]:
        """Per dimension, whether ``coords`` sits on one of its declared atoms."""
        return tuple(c in a for c, a in zip(coords, self.atoms))


def kernel_eval(kernel: str, u) -> np.ndarray | float:
    """Evaluate a kernel id at ``u``; zero outside [-1, 1].

    >>> kernel_eval("epanechnikov", 0.0)
    0.75
    >>> kernel_eval("triangular", 0.5)
    0.5
    """
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel id {kernel!r}")
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= 1.0
    # the formula sees 0.0 outside the support, where a far u would overflow
    arr = np.where(inside, arr, 0.0)
    if kernel == "epanechnikov":
        out = np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)
    elif kernel == "triangular":
        out = np.where(inside, 1.0 - np.abs(arr), 0.0)
    else:
        out = np.where(inside, 0.5, 0.0)
    return float(out) if np.isscalar(u) else out


def kernel_l2(kernel: str) -> float:
    """Integral of the squared kernel over its support."""
    try:
        return _L2_NORM[kernel]
    except KeyError:
        raise ValueError(f"unknown kernel id {kernel!r}") from None


def bandwidth(
    n: int, d_continuous: int = 1, *, eta: float = 0.75, explicit: float | None = None
) -> float:
    """Bandwidth for a sample of size ``n``.

    ``eta`` controls the decay ``a_n ** d_continuous = log(n) / n**(1 - eta)``;
    an explicit bandwidth overrides the schedule. ``d_continuous`` counts
    the non-atomic coordinates of the evaluation point; with none, the
    bandwidth degenerates to the sentinel value 1 and never enters any
    kernel factor.

    >>> round(bandwidth(100, 1, eta=0.75), 6)
    1.456283
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if d_continuous < 0:
        raise ValueError("d_continuous must be nonnegative")
    if explicit is not None and not 0.0 < explicit < math.inf:
        raise ValueError(f"explicit bandwidth must be a finite number > 0, got {explicit!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if explicit is not None:
        return explicit
    if d_continuous == 0:
        return 1.0
    if n == 1:
        raise ValueError("bandwidth schedule needs n >= 2")
    return (math.log(n) / n ** (1.0 - eta)) ** (1.0 / d_continuous)


@dataclass(frozen=True)
class WeightVector:
    """Normalized conditioning weights for one evaluation point.

    ``density_value`` is the kernel density estimate at the point. When
    it vanishes no path carries kernel mass and all weights are zero, so
    ``degenerate`` holds; estimators at this point are undefined and the
    caller decides how to react.
    """

    weights: np.ndarray
    density_value: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def degenerate(self) -> bool:
        return not self.weights.any()


def nw_weights(sample: Sample, x, spec: KernelSpec, a: float) -> WeightVector:
    """Kernel conditioning weights at the coordinates ``x`` with bandwidth ``a``.

    Each path contributes the product over dimensions of a scaled kernel
    factor for non-atomic coordinates of ``x`` and an exact-match
    indicator for atomic ones; paths sitting on an atom contribute no
    kernel mass to non-atomic coordinates. Weights are the factors
    normalized to sum to one and ``density_value`` is their mean.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"bandwidth must be a finite number > 0, got {a!r}")
    x = spec.eval_point(x)
    if len(sample) == 0:
        raise ValueError("empty sample")
    if sample.covariate_dim != spec.dim:
        raise ValueError("sample covariate dimension does not match spec")
    factors = np.ones(len(sample))
    for i, (xi, atom_set) in enumerate(zip(x, spec.atoms)):
        col = sample.table.covariates[:, i]
        if xi in atom_set:
            factors *= col == xi
        else:
            # a distance that overflows is infinite, hence outside the support
            with np.errstate(over="ignore"):
                scaled = (xi - col) / a
            contrib = kernel_eval(spec.kernels[i], scaled) / a
            factors *= np.where(np.isin(col, atom_set), 0.0, contrib)
    total = float(factors.sum())
    if total <= 0.0:
        return WeightVector(np.zeros(len(sample)), 0.0)
    return WeightVector(factors / total, total / len(sample))


def phi_estimate(spec: KernelSpec, density_value: float, atom_flags=None) -> float:
    """Variance scale of the kernel average at a point with this density.

    Product of the squared-kernel integrals over the non-atomic
    dimensions divided by the density estimate. ``atom_flags`` marks the
    atomic coordinates of the evaluation point; by default all
    coordinates count as continuous.

    >>> phi_estimate(KernelSpec.for_dims(1), 1.0)
    0.6
    """
    if not density_value > 0:
        raise ValueError("degenerate density")
    if atom_flags is None:
        atom_flags = (False,) * spec.dim
    if len(atom_flags) != spec.dim:
        raise ValueError("atom_flags length must match spec dimension")
    prod = 1.0
    for kernel, flag in zip(spec.kernels, atom_flags):
        if not flag:
            prod *= kernel_l2(kernel)
    return prod / density_value
