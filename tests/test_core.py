import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchprune import (
    DataMatrix,
    DimensionMismatchError,
    Mask,
    ProbabilityVector,
    RngStream,
    apply_mask,
    as_vector,
    features,
    row_norms,
)


class TestDataMatrix:
    def test_shape_accessors(self):
        X = DataMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (X.d, X.n) == (2, 3)
        np.testing.assert_array_equal(X.row(1), [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(X.col(2), [3.0, 6.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataMatrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            DataMatrix([[np.inf, 1.0]])

    def test_rejects_wrong_ndim_and_empty(self):
        with pytest.raises(ValueError):
            DataMatrix([1.0, 2.0])
        with pytest.raises(ValueError):
            DataMatrix(np.empty((0, 3)))

    def test_values_are_read_only(self):
        X = DataMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.values[0, 0] = 9.0


class TestAsVector:
    def test_read_only_float64_copy(self):
        source = np.array([1, -2])
        v = as_vector(source)
        np.testing.assert_array_equal(v, [1.0, -2.0])
        assert v.dtype == np.float64 and not v.flags.writeable
        source[0] = 5
        assert v[0] == 1.0

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            as_vector([[1.0], [2.0]])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                as_vector([1.0, bad])

    def test_rejects_wrapper_types(self):
        for wrapper in (
            DataMatrix(np.ones((3, 1))),
            Mask([1.0, 0.0]),
            ProbabilityVector([0.5, 0.5]),
        ):
            with pytest.raises(TypeError):
                as_vector(wrapper)
        with pytest.raises(TypeError):
            features(DataMatrix(np.ones((3, 1))), DataMatrix(np.ones((3, 1))))


class TestProbabilityVector:
    def test_exact_distribution(self):
        p = ProbabilityVector([0.25, 0.75])
        np.testing.assert_array_equal(p.values, [0.25, 0.75])

    def test_renormalizes_tiny_drift(self):
        p = ProbabilityVector([0.5, 0.5 + 1e-12])
        assert p.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.6])

    def test_rejects_negative_and_empty_support(self):
        with pytest.raises(ValueError):
            ProbabilityVector([-0.1, 1.1])
        with pytest.raises(ValueError):
            ProbabilityVector([0.0, 0.0])

    def test_support(self):
        p = ProbabilityVector([0.0, 1.0])
        np.testing.assert_array_equal(p.support(), [1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
    def test_normalized_input_round_trips(self, raw):
        arr = np.array(raw)
        p = ProbabilityVector(arr / arr.sum())
        assert p.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p.values >= 0).all()


class TestMask:
    def test_binary_validation(self):
        m = Mask([1.0, 0.0, 1.0], kind="binary")
        assert m.nnz == 2
        with pytest.raises(ValueError):
            Mask([0.5, 1.0], kind="binary")

    def test_sketch_allows_fractions(self):
        m = Mask([0.0, 2.5], kind="sketch")
        assert m.nnz == 1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Mask([1.0], kind="dense")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Mask([-1.0, 0.0], kind="sketch")


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(123, 4).normal(10_000)
        b = RngStream(123, 4).normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).normal(8)
        b = RngStream(123, 1).normal(8)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic(self):
        assert RngStream(5).substream(3) == RngStream(5).substream(3)
        assert RngStream(5).substream(3) != RngStream(5).substream(4)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0).substream(-2)


def test_row_norms_axis_aligned():
    np.testing.assert_allclose(row_norms(DataMatrix([[3.0, 0.0], [0.0, 4.0]])), [3.0, 4.0])


def test_row_norms_zero_matrix():
    np.testing.assert_array_equal(row_norms(DataMatrix(np.zeros((2, 2)))), [0.0, 0.0])


def test_row_norms_general():
    norms = row_norms(DataMatrix([[1.0, 1.0], [2.0, 2.0]]))
    np.testing.assert_allclose(norms, [np.sqrt(2.0), 2.0 * np.sqrt(2.0)])


def test_row_norms_match_naive_loop():
    rng = RngStream(11)
    X = DataMatrix(rng.normal((7, 5)))
    naive = [np.sqrt(sum(x * x for x in X.row(i))) for i in range(7)]
    np.testing.assert_allclose(row_norms(X), naive, rtol=1e-12)


def test_features_identity():
    np.testing.assert_array_equal(features(DataMatrix(np.eye(2)), [1.0, 1.0]), [1.0, 1.0])


def test_features_diagonal():
    got = features(DataMatrix([[3.0, 0.0], [0.0, 4.0]]), [2.0, 1.0])
    np.testing.assert_array_equal(got, [6.0, 4.0])


def test_features_zero_weights():
    np.testing.assert_array_equal(features(DataMatrix(np.eye(3)), np.zeros(3)), np.zeros(3))


def test_features_dimension_error():
    with pytest.raises(DimensionMismatchError):
        features(DataMatrix(np.eye(2)), [1.0, 2.0, 3.0])


def test_apply_mask_binary():
    out = apply_mask([1.0, 2.0], Mask([0.0, 1.0], kind="binary"))
    np.testing.assert_array_equal(out, [0.0, 2.0])


def test_apply_mask_fractional():
    out = apply_mask([1.0, 1.0], Mask([2.0, 0.0], kind="sketch"))
    np.testing.assert_array_equal(out, [2.0, 0.0])


def test_apply_mask_identity_preserves_features():
    rng = RngStream(3)
    X = DataMatrix(rng.normal((6, 4)))
    w = rng.normal(6)
    ones = Mask(np.ones(6), kind="binary")
    np.testing.assert_array_equal(features(X, apply_mask(w, ones)), features(X, w))


def test_apply_mask_dimension_error():
    with pytest.raises(DimensionMismatchError):
        apply_mask([1.0, 2.0, 3.0], Mask([1.0, 0.0], kind="binary"))
