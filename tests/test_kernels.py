import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from condaalen.data import CENSORED, ObservedPath, Sample, StateSpace
from condaalen.estimators import fit
from condaalen.kernels import (
    KernelSpec,
    NoKernelMass,
    bandwidth,
    kernel_eval,
    kernel_l2,
    nw_weights,
    phi_estimate,
)

KERNELS = ("epanechnikov", "triangular", "uniform")


def _sample(covars):
    space = StateSpace((1, 2), frozenset({2}))
    paths = tuple(
        ObservedPath(tuple(np.atleast_1d(c)), 1, (), 1.0, CENSORED) for c in covars
    )
    return Sample(paths, space)


def test_kernel_point_values():
    assert kernel_eval("epanechnikov", 0.0) == 0.75
    assert kernel_eval("epanechnikov", 0.5) == 0.75 * 0.75
    assert kernel_eval("epanechnikov", 1.0) == 0.0
    assert kernel_eval("triangular", 0.0) == 1.0
    assert kernel_eval("triangular", 0.5) == 0.5
    assert kernel_eval("uniform", -0.3) == 0.5
    for k in KERNELS:
        assert kernel_eval(k, 1.5) == 0.0
        assert kernel_eval(k, -1.5) == 0.0


def test_kernel_eval_vectorized():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    got = kernel_eval("triangular", u)
    np.testing.assert_allclose(got, [0.0, 0.5, 1.0, 0.5, 0.0])


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        kernel_eval("gaussian", 0.0)
    with pytest.raises(ValueError):
        kernel_l2("gaussian")


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_integrates_to_one(kernel):
    mass, _ = quad(lambda u: kernel_eval(kernel, u), -1, 1)
    assert abs(mass - 1.0) < 1e-9


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_is_centered(kernel):
    first, _ = quad(lambda u: u * kernel_eval(kernel, u), -1, 1)
    assert abs(first) < 1e-12


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_l2_matches_quadrature(kernel):
    ref, _ = quad(lambda u: kernel_eval(kernel, u) ** 2, -1, 1)
    assert abs(kernel_l2(kernel) - ref) < 1e-9


def test_bandwidth_frozen_values():
    assert bandwidth(100, 1, eta=0.75) == 1.4562826800423603
    assert bandwidth(10**4, 2, eta=0.75) == 0.9597051824376163


def test_bandwidth_direct_formula():
    for n, eta, d in ((50, 0.5, 1), (500, 0.9, 3), (20, 0.75, 2)):
        want = (math.log(n) / n ** (1 - eta)) ** (1 / d)
        assert bandwidth(n, d, eta=eta) == want


def test_bandwidth_sentinel_and_overrides():
    assert bandwidth(100, 0) == 1.0
    assert bandwidth(100, explicit=0.2) == 0.2
    with pytest.raises(ValueError):
        bandwidth(1, 1)
    with pytest.raises(ValueError):
        bandwidth(0, 1)


def test_bandwidth_schedule_validation():
    with pytest.raises(ValueError):
        bandwidth(100, eta=0.0)
    with pytest.raises(ValueError):
        bandwidth(100, eta=1.0)
    with pytest.raises(ValueError):
        bandwidth(100, explicit=-1.0)


def test_weights_single_path():
    spec = KernelSpec.for_dims(1)
    s = _sample([0.4])
    w = nw_weights(s, spec.eval_point((0.4,)), spec, 1.0)
    np.testing.assert_array_equal(w.weights, [1.0])
    assert not w.degenerate


def test_weights_two_equidistant_paths():
    spec = KernelSpec.for_dims(1)
    s = _sample([0.2, 0.6])
    w = nw_weights(s, spec.eval_point((0.4,)), spec, 1.0)
    np.testing.assert_allclose(w.weights, [0.5, 0.5])
    # density is the mean kernel factor: K(0.2) = 0.75 * 0.96
    assert abs(w.density_value - 0.75 * 0.96) < 1e-15


def test_weights_atomic_dimension():
    spec = KernelSpec.for_dims(1, atoms=((1.0,),))
    s = _sample([1.0, 1.0, 1.0, 0.7])
    x = spec.eval_point((1.0,))
    assert spec.atom_flags(x) == (True,)
    w = nw_weights(s, x, spec, 0.5)
    np.testing.assert_allclose(w.weights, [1 / 3, 1 / 3, 1 / 3, 0.0])
    assert w.density_value == 0.75


def test_weights_atom_paths_carry_no_kernel_mass():
    # evaluation point off the atom, one path sitting on the atom
    spec = KernelSpec.for_dims(1, atoms=((1.0,),))
    s = _sample([1.0, 0.45, 0.55])
    w = nw_weights(s, spec.eval_point((0.5,)), spec, 1.0)
    assert w.weights[0] == 0.0
    np.testing.assert_allclose(w.weights[1:], [0.5, 0.5])


def test_weights_degenerate():
    spec = KernelSpec.for_dims(1)
    s = _sample([0.0, 0.1])
    w = nw_weights(s, spec.eval_point((5.0,)), spec, 0.01)
    assert w.degenerate
    assert w.density_value == 0.0
    np.testing.assert_array_equal(w.weights, [0.0, 0.0])


def test_weights_match_plain_product():
    rng = np.random.default_rng(3)
    covars = rng.uniform(-1, 1, size=(12, 2))
    spec = KernelSpec.for_dims(2, kernel="triangular")
    x = (0.1, -0.2)
    a = 0.8
    factors = np.ones(12)
    for i in range(2):
        factors *= kernel_eval("triangular", (x[i] - covars[:, i]) / a) / a
    w = nw_weights(_sample(list(covars)), spec.eval_point(x), spec, a)
    np.testing.assert_allclose(w.weights, factors / factors.sum(), atol=1e-15)
    np.testing.assert_allclose(w.density_value, factors.mean(), atol=1e-15)


def test_weights_dimension_mismatch():
    spec = KernelSpec.for_dims(2)
    s = _sample([0.4])
    with pytest.raises(ValueError):
        nw_weights(s, spec.eval_point((0.4, 0.5)), spec, 1.0)


@pytest.mark.parametrize(
    "a, shown", [(math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0"), (-1.0, "-1.0")]
)
def test_weights_reject_bad_bandwidth(a, shown):
    # an infinite bandwidth must not surface as a degenerate "no kernel mass"
    spec = KernelSpec.for_dims(1)
    with pytest.raises(ValueError, match=f"bandwidth must be a finite number > 0, got {shown}$"):
        nw_weights(_sample([0.4, 0.6]), spec.eval_point((0.5,)), spec, a)


@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf])
def test_weights_reject_non_finite_x(coord):
    # bad input, not degenerate weights that read as "no kernel mass"
    spec = KernelSpec.for_dims(1)
    with pytest.raises(ValueError, match="non-finite coordinate") as info:
        nw_weights(_sample([0.4, 0.6]), (coord,), spec, 0.5)
    assert type(info.value) is ValueError


@given(
    covars=st.lists(st.floats(-5, 5), min_size=1, max_size=25),
    x=st.floats(-5, 5),
    a=st.floats(0.05, 10),
)
@settings(max_examples=60, deadline=None)
def test_weights_normalize_or_degenerate(covars, x, a):
    spec = KernelSpec.for_dims(1)
    w = nw_weights(_sample(covars), spec.eval_point((x,)), spec, a)
    if w.degenerate:
        assert np.all(w.weights == 0.0)
    else:
        assert np.all(w.weights >= 0.0)
        assert abs(w.weights.sum() - 1.0) < 1e-12


def _masked_after(kernel, u):
    """``kernel_eval`` as first written: the formula on every u, masked afterwards."""
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= 1.0
    if kernel == "epanechnikov":
        return np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)
    if kernel == "triangular":
        return np.where(inside, 1.0 - np.abs(arr), 0.0)
    return np.where(inside, 0.5, 0.0)


@pytest.mark.parametrize("kernel", KERNELS)
@given(
    covars=st.lists(st.floats(-5, 5), min_size=1, max_size=25),
    x=st.floats(-5, 5),
    a=st.floats(0.05, 10),
)
@settings(max_examples=60, deadline=None)
def test_weights_bits_match_formula_masked_after(kernel, covars, x, a):
    spec = KernelSpec.for_dims(1, kernel=kernel)
    w = nw_weights(_sample(covars), spec.eval_point((x,)), spec, a)
    factors = _masked_after(kernel, (x - np.asarray(covars)) / a) / a
    total = float(factors.sum())
    want = factors / total if total > 0.0 else np.zeros(len(covars))
    assert np.array_equal(w.weights.view(np.int64), want.view(np.int64))
    assert np.array_equal(kernel_eval(kernel, covars).view(np.int64),
                          _masked_after(kernel, covars).view(np.int64))


@pytest.mark.parametrize("kernel", KERNELS)
def test_far_kernel_arguments_do_not_overflow(kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_eval(kernel, 1e200) == 0.0
        assert kernel_eval(kernel, -1e200) == 0.0
        assert np.array_equal(kernel_eval(kernel, np.array([1e200, -np.inf, np.inf])), [0.0] * 3)


@pytest.mark.parametrize("x, bandwidth", [((1e308,), None), ((-1e308,), None), ((0.5,), 1e-300)])
def test_far_point_or_tiny_bandwidth_is_no_mass_without_warning(sim_sample, x, bandwidth):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoKernelMass):
            fit(sim_sample, x, explicit_bandwidth=bandwidth)


@given(
    covars=st.lists(st.floats(-2, 2), min_size=2, max_size=15),
    x=st.floats(-2, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_weights_permutation_equivariant(covars, x, seed):
    spec = KernelSpec.for_dims(1)
    perm = np.random.default_rng(seed).permutation(len(covars))
    w1 = nw_weights(_sample(covars), spec.eval_point((x,)), spec, 1.0)
    w2 = nw_weights(_sample(list(np.asarray(covars)[perm])), spec.eval_point((x,)), spec, 1.0)
    np.testing.assert_allclose(w2.weights, w1.weights[perm], atol=1e-14)
    assert w1.density_value == pytest.approx(w2.density_value, rel=1e-13, abs=1e-300)


def test_phi_values():
    assert phi_estimate(KernelSpec.for_dims(1), 1.0) == 0.6
    assert phi_estimate(KernelSpec.for_dims(1, kernel="uniform"), 1.0) == 0.5
    mixed = KernelSpec(("epanechnikov", "uniform"), ((), ()))
    assert phi_estimate(mixed, 1.0) == pytest.approx(0.3)
    assert phi_estimate(mixed, 0.5) == pytest.approx(0.6)


def test_phi_skips_atomic_dimensions():
    mixed = KernelSpec(("epanechnikov", "uniform"), ((), (1.0,)))
    assert phi_estimate(mixed, 1.0, atom_flags=(False, True)) == 0.6
    assert phi_estimate(mixed, 1.0, atom_flags=(True, True)) == 1.0


def test_phi_rejects_bad_density():
    with pytest.raises(ValueError, match="degenerate density"):
        phi_estimate(KernelSpec.for_dims(1), 0.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.for_dims(1, kernel="gaussian")
    with pytest.raises(ValueError):
        KernelSpec(("epanechnikov",), ((), ()))
    with pytest.raises(ValueError, match="atoms must be finite"):
        KernelSpec.for_dims(2, atoms=((0.0,), (1.0, float("nan"))))
    spec = KernelSpec.for_dims(2, atoms=((0.0,), ()))
    assert spec.atom_flags(spec.eval_point((0.0, 0.3))) == (True, False)
