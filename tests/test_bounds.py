import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchprune import (
    BoundReport,
    DataMatrix,
    DegenerateDistributionError,
    EnumerationLimitError,
    ProbabilityVector,
    RngStream,
    SupportError,
    enumerate_exact_error,
    exact_expected_error,
    lemma1_exact_error,
    lemma2_bound,
    lemma3_bound,
    lemma4_uniform_bound,
    mc_error_over_data,
    mc_error_over_masks,
    optimal_probabilities,
    theorem1_bound,
    uniform_probabilities,
)

I2 = DataMatrix(np.eye(2))


class TestLemma1:
    def test_identity_instance(self):
        assert lemma1_exact_error(I2, [1.0, 1.0], 1) == pytest.approx(2.0)

    def test_single_support_is_exact(self):
        for s in (1, 2, 5):
            assert lemma1_exact_error(I2, [1.0, 0.0], s) == pytest.approx(0.0, abs=1e-15)

    def test_inverse_budget_scaling(self):
        rng = RngStream(1)
        X = DataMatrix(rng.normal((5, 4)))
        w = rng.normal(5)
        assert lemma1_exact_error(X, w, 4) == pytest.approx(
            lemma1_exact_error(X, w, 1) / 4.0, rel=1e-12
        )

    def test_degenerate_weights_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            lemma1_exact_error(I2, [0.0, 0.0], 1)

    def test_one_hot_weights_are_exactly_zero(self):
        rng = RngStream(31)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            X = DataMatrix(rng.normal((d, int(rng.integers(1, 7)))))
            w = np.zeros(d)
            w[int(rng.integers(0, d))] = float(rng.normal(1)[0])
            s = int(rng.integers(1, 5))
            assert lemma1_exact_error(X, w, s) == 0.0
            assert lemma3_bound(X, X, w, w, s)[0] == 0.0

    def test_matches_paper_formula(self):
        rng = RngStream(32)
        checked = 0
        for _ in range(200):
            d = int(rng.integers(2, 9))
            X = DataMatrix(rng.normal((d, int(rng.integers(1, 7)))))
            w = rng.normal(d)
            s = int(rng.integers(1, 5))
            total = float(np.linalg.norm(X.values, axis=1) @ np.abs(w))
            paper = (total**2 - float(np.sum((X.values.T @ w) ** 2))) / s
            result = lemma1_exact_error(X, w, s)
            if result > 1e-6 * total**2:
                assert result == pytest.approx(paper, rel=1e-9)
                checked += 1
        assert checked >= 100


class TestLemma2:
    def test_hand_value(self):
        assert lemma2_bound([3.0, 4.0], 5) == pytest.approx(5.0)

    def test_zero_weights(self):
        assert lemma2_bound([0.0, 0.0], 3) == 0.0

    def test_doubling_budget_halves(self):
        w = [1.0, 2.0, -2.0]
        assert lemma2_bound(w, 6) == pytest.approx(lemma2_bound(w, 3) / 2.0)


class TestLemma3:
    def test_hand_instance(self):
        exact, bound = lemma3_bound(I2, I2, [1.0, 1.0], [1.0, 2.0], 1)
        assert exact == pytest.approx(5.0)
        assert bound == pytest.approx(10.0)

    def test_reduces_to_lemma1(self):
        rng = RngStream(8)
        X = DataMatrix(rng.normal((4, 3)))
        w = rng.normal(4)
        exact, _ = lemma3_bound(X, X, w, w, 2)
        assert exact == pytest.approx(lemma1_exact_error(X, w, 2), rel=1e-12)

    def test_zero_target(self):
        exact, bound = lemma3_bound(I2, I2, [1.0, 1.0], [0.0, 0.0], 1)
        assert (exact, bound) == (0.0, 0.0)

    def test_bound_dominates_exact(self):
        rng = RngStream(21)
        for _ in range(20):
            X = DataMatrix(rng.normal((5, 3)))
            X_tilde = DataMatrix(rng.normal((5, 6)))
            w0 = rng.normal(5)
            w_star = rng.normal(5)
            exact, bound = lemma3_bound(X, X_tilde, w0, w_star, 2)
            assert 0.0 <= exact <= bound + 1e-12

    def test_support_violation(self):
        with pytest.raises(SupportError):
            lemma3_bound(I2, I2, [1.0, 0.0], [0.0, 1.0], 1)


class TestTheorem1:
    def test_zero_distance_reduction(self):
        w = np.array([1.0, 1.0])
        assert theorem1_bound(w, w, 2) == pytest.approx(2.0)

    def test_hand_value(self):
        assert theorem1_bound([1.0, 0.5], [1.1, 0.4], 1) == pytest.approx(2.88)

    def test_zero_w0_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            theorem1_bound([0.0, 0.0], [1.0, 1.0], 1)


class TestLemma4:
    def test_hand_value(self):
        assert lemma4_uniform_bound([1.0, 1.0], 1) == pytest.approx(4.0)

    def test_zero_target(self):
        assert lemma4_uniform_bound([0.0, 0.0], 1) == 0.0

    def test_full_budget(self):
        w = [1.0, -2.0, 3.0]
        assert lemma4_uniform_bound(w, 3) == pytest.approx(float(np.dot(w, w)))

    def test_dimension_factor_vs_lemma2(self):
        rng = RngStream(4)
        w0 = rng.normal(6)
        w_star = rng.normal(6)
        ratio = lemma4_uniform_bound(w_star, 2) / lemma2_bound(w0, 2)
        expected = 6 * float(w_star @ w_star) / float(w0 @ w0)
        assert ratio == pytest.approx(expected, rel=1e-12)


class TestEnumeration:
    def test_identity_instance(self):
        p = optimal_probabilities(I2, [1.0, 1.0])
        assert enumerate_exact_error(I2, [1.0, 1.0], p, 1) == pytest.approx(2.0)

    def test_degenerate_distribution_zero_error(self):
        p = ProbabilityVector([1.0, 0.0])
        assert enumerate_exact_error(I2, [1.0, 0.0], p, 2) == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_closed_forms(self):
        rng = RngStream(17)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            X = DataMatrix(rng.normal((d, n)))
            w0 = rng.normal(d)
            w_star = rng.normal(d)
            p0 = optimal_probabilities(X, w0)
            enum_self = enumerate_exact_error(X, w0, p0, s)
            assert enum_self == pytest.approx(lemma1_exact_error(X, w0, s), rel=1e-10)
            exact, _ = lemma3_bound(X, X, w0, w_star, s)
            enum_cross = enumerate_exact_error(X, w_star, p0, s)
            assert enum_cross == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_budget_guard(self):
        rng = RngStream(2)
        X = DataMatrix(rng.normal((50, 2)))
        p = uniform_probabilities(50)
        with pytest.raises(EnumerationLimitError):
            enumerate_exact_error(X, rng.normal(50), p, 4)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_optimal_distribution_never_loses_to_uniform(self, seed):
        rng = RngStream(seed)
        d = int(rng.integers(2, 5))
        X = DataMatrix(rng.normal((d, 3)))
        w = rng.normal(d)
        p0 = optimal_probabilities(X, w)
        s = 2
        err_opt = enumerate_exact_error(X, w, p0, s)
        err_uni = enumerate_exact_error(X, w, uniform_probabilities(d), s)
        assert err_opt <= err_uni + 1e-12


class TestExactExpectedError:
    def test_matches_lemma1_under_optimal(self):
        rng = RngStream(6)
        X = DataMatrix(rng.normal((6, 5)))
        w = rng.normal(6)
        p0 = optimal_probabilities(X, w)
        assert exact_expected_error(X, w, p0, 3) == pytest.approx(
            lemma1_exact_error(X, w, 3), rel=1e-12
        )

    def test_support_violation(self):
        with pytest.raises(SupportError):
            exact_expected_error(I2, [1.0, 1.0], ProbabilityVector([1.0, 0.0]), 1)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_negative(self, seed):
        rng = RngStream(seed)
        d = int(rng.integers(2, 9))
        X = DataMatrix(rng.normal((d, int(rng.integers(1, 7)))))
        q = rng.uniform(d) + 1e-3
        p = ProbabilityVector(q / q.sum())
        dominant = np.eye(d)[0] + 1e-9 * rng.normal(d)
        s = int(rng.integers(1, 5))
        assert exact_expected_error(X, rng.normal(d), p, s) >= 0.0
        assert exact_expected_error(X, dominant, p, s) >= 0.0
        p_dominant = optimal_probabilities(X, dominant)
        assert exact_expected_error(X, dominant, p_dominant, s) >= 0.0


class TestBoundReport:
    def test_equality_is_two_sided(self):
        assert BoundReport(1.0, 0.1, 1.2, "equality", 10).satisfied()
        assert not BoundReport(1.0, 0.01, 1.2, "equality", 10).satisfied()
        assert not BoundReport(1.4, 0.01, 1.2, "equality", 10).satisfied()

    def test_upper_bound_is_one_sided(self):
        assert BoundReport(0.2, 0.01, 1.2, "upper-bound", 10).satisfied()
        assert BoundReport(1.23, 0.01, 1.2, "upper-bound", 10).satisfied()
        assert not BoundReport(1.5, 0.01, 1.2, "upper-bound", 10).satisfied()

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            BoundReport(1.0, 0.1, 1.0, "two-sided", 10)


class TestMcOverMasks:
    def test_degenerate_is_exactly_zero(self):
        rep = mc_error_over_masks(
            I2, [1.0, 0.0], ProbabilityVector([1.0, 0.0]), 2, 50, RngStream(0)
        )
        assert rep.empirical_error == 0.0
        assert rep.standard_error == 0.0

    def test_matches_closed_form(self):
        p = optimal_probabilities(I2, [1.0, 1.0])
        rep = mc_error_over_masks(
            I2, [1.0, 1.0], p, 1, 20_000, RngStream(3), reference=2.0
        )
        assert rep.kind == "equality"
        assert rep.satisfied()

    def test_monotone_in_budget(self):
        rng = RngStream(12)
        X = DataMatrix(rng.normal((6, 4)))
        w = rng.normal(6)
        p = optimal_probabilities(X, w)
        previous = math.inf
        for s in (1, 2, 4, 8):
            exact = lemma1_exact_error(X, w, s)
            rep = mc_error_over_masks(X, w, p, s, 8_000, rng, reference=exact)
            assert rep.satisfied()
            assert rep.empirical_error < previous + 4.0 * rep.standard_error
            previous = rep.empirical_error


class TestMcOverData:
    def test_zero_target_is_zero(self):
        rng = RngStream(5)
        w0 = rng.normal(8)
        rep = mc_error_over_data(w0, np.zeros(8), 2, 4, 20, rng)
        assert rep.empirical_error == 0.0

    def test_flat_profile_meets_trained_weights_bound(self):
        rng = RngStream(19)
        d = 32
        signs = np.where(rng.uniform(d) < 0.5, -1.0, 1.0)
        w0 = signs / math.sqrt(d)
        delta = rng.normal(d)
        delta *= 0.5 * np.linalg.norm(w0) / np.linalg.norm(delta)
        rep = mc_error_over_data(w0, w0 + delta, 4, 16, 300, rng)
        assert rep.kind == "upper-bound"
        assert rep.satisfied()

    def test_uniform_meets_dimension_bound(self):
        rng = RngStream(20)
        w = rng.normal(16) / 4.0
        rep = mc_error_over_data(w, w, 4, 16, 300, rng, distribution="uniform")
        assert rep.closed_form_or_bound == pytest.approx(lemma4_uniform_bound(w, 4))
        assert rep.satisfied()

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            mc_error_over_data([1.0], [1.0], 1, 1, 2, RngStream(0), distribution="zipf")
