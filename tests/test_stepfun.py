import numpy as np
import pytest

from condaalen.stepfun import StepCurve, StepMatrix


def test_curve_query_is_right_continuous():
    f = StepCurve(np.array([1.0, 2.0]), np.array([10.0, 20.0]), initial=0.0)
    assert f(0.5) == 0.0
    assert f(1.0) == 10.0
    assert f(1.5) == 10.0
    assert f(2.0) == 20.0
    assert f(3.0) == 20.0


def test_curve_left_limits():
    f = StepCurve(np.array([1.0, 2.0]), np.array([10.0, 20.0]), initial=0.0)
    assert f.left(1.0) == 0.0
    assert f.left(1.5) == 10.0
    assert f.left(2.0) == 10.0
    assert f.left(2.5) == 20.0


def test_curve_vectorized_query():
    f = StepCurve(np.array([1.0, 3.0]), np.array([1.0, 5.0]), initial=-1.0)
    got = f(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(got, [-1.0, 1.0, 1.0, 5.0, 5.0])


def test_curve_increments():
    f = StepCurve(np.array([1.0, 2.0, 4.0]), np.array([3.0, 3.5, 2.0]), initial=1.0)
    np.testing.assert_allclose(f.increments(), [2.0, 0.5, -1.5])


def test_curve_rejects_unsorted_times():
    with pytest.raises(ValueError):
        StepCurve(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StepCurve(np.array([1.0, 1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("initial", [np.array([1.0, 2.0]), np.array([[1.0]]), "x", None, 1j])
def test_curve_refuses_an_initial_that_is_no_real_number(initial):
    with pytest.raises(ValueError, match="initial must be a real number"):
        StepCurve([1.0], [1.0], initial)


def test_curve_stores_its_initial_as_a_float():
    for initial in (2, np.float32(0.5), np.array(-0.0), True):
        f = StepCurve([1.0], [1.0], initial)
        assert type(f.initial) is float and f.initial == initial
        assert type(f(0.5)) is float
    assert np.signbit(StepCurve([1.0], [1.0], np.array(-0.0)).initial)


def test_curve_rejects_length_mismatch():
    with pytest.raises(ValueError):
        StepCurve(np.array([1.0, 2.0]), np.array([1.0]))


def test_empty_curve_returns_initial():
    f = StepCurve(np.array([]), np.array([]), initial=7.0)
    assert f(0.0) == 7.0
    assert f.left(100.0) == 7.0
    assert f.increments().size == 0


def test_matrix_at_and_left():
    times = np.array([1.0, 2.0])
    vals = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
    m = StepMatrix(times, vals)
    np.testing.assert_array_equal(m.at(0.5), np.zeros((2, 2)))
    np.testing.assert_array_equal(m.at(1.0), vals[0])
    np.testing.assert_array_equal(m.at(1.7), vals[0])
    np.testing.assert_array_equal(m.at(2.0), vals[1])
    np.testing.assert_array_equal(m.left(1.0), np.zeros((2, 2)))
    np.testing.assert_array_equal(m.left(2.0), vals[0])


def test_matrix_increments():
    times = np.array([1.0, 2.0])
    vals = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
    m = StepMatrix(times, vals)
    inc = m.increments()
    np.testing.assert_array_equal(inc[0], vals[0])
    np.testing.assert_array_equal(inc[1], vals[1] - vals[0])


def test_matrix_custom_initial():
    init = np.array([[5.0, 0.0], [0.0, 5.0]])
    m = StepMatrix(np.array([1.0]), np.array([[[6.0, 0.0], [0.0, 6.0]]]), initial=init)
    np.testing.assert_array_equal(m.at(0.0), init)
    np.testing.assert_array_equal(m.increments()[0], np.eye(2))


def test_an_empty_matrix_keeps_its_shape():
    m = StepMatrix([], np.empty((0, 3, 3)))
    assert m.dim == 3 and m.initial.shape == (3, 3)
    np.testing.assert_array_equal(m.at(1.0), np.zeros((3, 3)))
    np.testing.assert_array_equal(m.left(np.array([0.5, 2.0])), np.zeros((2, 3, 3)))
    assert m.values.shape == m.increments().shape == (0, 3, 3)
    with pytest.raises(ValueError, match="initial"):
        StepMatrix([], np.empty((0, 3, 3)), initial=np.eye(2))


def test_a_matrix_on_its_stored_cells_matches_its_dense_twin():
    # cells 0 and 3 of a 2 x 2 matrix are stored, with -0.0 on the diagonal
    # before the first move; cells 1 and 2 are +0.0 at every time
    knots = np.array([[-0.0, -0.0], [-1.5, -0.0], [-2.0, -0.5]])
    m = StepMatrix.on_knots(
        np.array([1.0, 2.0, 3.0, 4.0]), knots, np.array([0, 1, 3]), np.zeros((2, 2)),
        _cells=np.array([0, 3]),
    )  # fmt: skip
    dense = np.zeros((4, 2, 2))
    dense[:, 0, 0], dense[:, 1, 1] = knots[[0, 1, 1, 2]].T
    twin = StepMatrix(m.times, dense)
    assert np.array_equal(m.values.view(np.int64), dense.view(np.int64))
    assert np.array_equal(m.increments().view(np.int64), twin.increments().view(np.int64))
    t = np.array([0.0, 1.0, 1.5, 2.0, 3.5, 4.0, 9.0])
    for name in ("at", "left"):
        got, want = getattr(m, name)(t), getattr(twin, name)(t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        assert got.shape == (7, 2, 2)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        StepMatrix(np.array([1.0]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        StepMatrix(np.array([1.0, 2.0]), np.zeros((1, 2, 2)))


def test_a_nan_time_has_no_value():
    f = StepCurve(np.array([1.0, 2.0]), np.array([10.0, 20.0]), initial=0.0)
    m = StepMatrix(np.array([1.0, 2.0]), np.ones((2, 2, 2)))
    for lookup in (f, f.left, m.at, m.left):
        with pytest.raises(ValueError, match="NaN"):
            lookup(np.nan)
        with pytest.raises(ValueError, match="NaN"):
            lookup(np.array([0.5, np.nan, 3.0]))
    empty = StepCurve(np.array([]), np.array([]), initial=7.0)
    with pytest.raises(ValueError, match="NaN"):
        empty(float("nan"))


def test_matrix_lookups_take_arrays():
    times = np.array([1.0, 2.0])
    vals = np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
    m = StepMatrix(times, vals)
    t = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    np.testing.assert_array_equal(m.at(t), np.stack([m.at(u) for u in t]))
    np.testing.assert_array_equal(m.left(t), np.stack([m.left(u) for u in t]))
    assert m.at(t[:0]).shape == (0, 2, 2)
