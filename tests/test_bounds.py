import dataclasses
import math
import warnings

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
    as_vector,
    enumerate_exact_error,
    exact_expected_error,
    lemma1_exact_error,
    lemma2_bound,
    lemma3_bound,
    lemma4_uniform_bound,
    mc_error_over_data,
    mc_error_over_masks,
    optimal_probabilities,
    row_norms,
    run_prune_pipeline,
    sample_sketch_mask,
    scores_to_probabilities,
    seed_state,
    theorem1_bound,
    train_least_squares,
    uniform_probabilities,
)
from sketchprune import bounds, core, sketch

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
        assert lemma2_bound([3.0, 4.0], 5) == pytest.approx((3.0 + 4.0) ** 2 / 5)

    def test_zero_weights(self):
        with pytest.raises(DegenerateDistributionError):
            lemma2_bound([0.0, 0.0], 3)

    def test_holds_for_flat_weights(self):
        # ||w0||_1^2 / ||w0||_2^2 = d = 64: the self-mask error averages about
        # 7.75, far above ||w0||_2^2 / s = 0.125 but below ||w0||_1^2 / s = 8
        rng = RngStream(34)
        w0 = np.where(rng.uniform(64) < 0.5, -1.0, 1.0) / 8.0
        rep = mc_error_over_data(
            w0, w0, 8, 32, 2000, rng.substream(1), reference=lemma2_bound(w0, 8)
        )
        assert rep.satisfied()

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
        # 1.5 * (0.01 / 1 + 0.01 / 0.5 + 2 * 0.2 + 1.5) / 1
        assert theorem1_bound([1.0, 0.5], [1.1, 0.4], 1) == pytest.approx(2.895)

    def test_zero_w0_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            theorem1_bound([0.0, 0.0], [1.0, 1.0], 1)

    def test_moved_weight_outside_support_rejected(self):
        with pytest.raises(SupportError):
            theorem1_bound([1.0, 0.0], [1.0, 0.5], 1)
        # An unmoved zero weight adds nothing.
        assert theorem1_bound([1.0, 0.0], [1.1, 0.0], 1) == pytest.approx(1.21)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_holds_for_gaussian_w0(self, seed):
        # |w0| varies across coordinates, as the pipeline draws it; a bound
        # with ||w* - w0||^2 / ||w0||_inf in place of the per-coordinate sum
        # falls below the data average on every seed here.
        rng = RngStream(seed, 7)
        w0 = rng.normal(64)
        delta = rng.normal(64)
        delta *= np.linalg.norm(w0) / np.linalg.norm(delta)
        rep = mc_error_over_data(w0, w0 + delta, 8, 32, 400, rng.substream(1))
        assert rep.satisfied()


class TestLemma4:
    def test_hand_value(self):
        assert lemma4_uniform_bound([1.0, 1.0], 1) == pytest.approx(4.0)

    def test_zero_target(self):
        assert lemma4_uniform_bound([0.0, 0.0], 1) == 0.0

    def test_full_budget(self):
        w = [1.0, -2.0, 3.0]
        assert lemma4_uniform_bound(w, 3) == pytest.approx(float(np.dot(w, w)))

    def test_init_rule_skips_zero_initial_weights(self):
        # p = |w0| / ||w0||_1 = (1, 0) draws index 0 alone, so w* = (1, 0)
        # reads 0 under it against 1 under uniform p; the rule sums
        # w*_k^2 / |w0_k| over w0_k != 0 only, and refuses a w* that carries
        # weight where w0 is zero, whose error is infinite.
        w0 = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            init = bounds._expected_sketch_error(ProbabilityVector(w0), w0, 1)
            uniform = bounds._expected_sketch_error(uniform_probabilities(2), w0, 1)
            assert (init, uniform) == (0.0, 1.0)
            assert bounds._init_beats_uniform(w0, w0)
            with pytest.raises(SupportError):
                bounds._init_beats_uniform(w0, np.array([1.0, 0.5]))

    def test_dimension_factor_vs_lemma2(self):
        rng = RngStream(4)
        w0 = rng.normal(6)
        w_star = rng.normal(6)
        ratio = lemma4_uniform_bound(w_star, 2) / lemma2_bound(w0, 2)
        expected = 6 * float(w_star @ w_star) / float(np.abs(w0).sum()) ** 2
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

    def test_memory_is_flat_in_dimension(self, traced_peak):
        # At d=4096 the 4096 one-draw sequences held as one chunk of masks,
        # and their weighted copy, took 256 MiB; a chunk of their drawn
        # rows, s n entries each, stays within a block.
        rng = RngStream(47)
        X = DataMatrix(rng.normal((4096, 4)))
        w = rng.normal(4096)
        p = optimal_probabilities(X, w)
        enumerated, peak = traced_peak(enumerate_exact_error, X, w, p, 1)
        assert peak < 2 * 2**20
        assert enumerated == pytest.approx(exact_expected_error(X, w, p, 1), rel=1e-10)

    @pytest.mark.parametrize("d, n, s", [(2, 1, 19), (3, 2, 12)])
    def test_memory_is_flat_in_budget(self, d, n, s, traced_peak):
        # 2^19 and 3^12 sequences: chunks sized by d and n alone held tens
        # of thousands of s-index rows each, peaking near 8 MiB and 4 MiB;
        # a chunk sized by s n stays within a block.
        rng = RngStream(49)
        X = DataMatrix(rng.normal((d, n)))
        w = rng.normal(d)
        p = optimal_probabilities(X, w)
        enumerated, peak = traced_peak(enumerate_exact_error, X, w, p, s)
        assert peak < 2 * 2**20
        assert enumerated == pytest.approx(
            exact_expected_error(X, w, p, s), rel=1e-10, abs=1e-12
        )

    def test_many_chunks_agree_with_closed_form(self):
        # 300^2 sequences in chunks of 2^15 // (2 * 3) = 5461, the last one short
        rng = RngStream(48)
        X = DataMatrix(rng.normal((300, 3)))
        w = rng.normal(300)
        for p in (optimal_probabilities(X, w), uniform_probabilities(300)):
            assert enumerate_exact_error(X, w, p, 2) == pytest.approx(
                exact_expected_error(X, w, p, 2), rel=1e-10
            )

    @pytest.mark.parametrize("s", [1, 2])
    def test_subnormal_probability_does_not_overflow(self, s):
        # p_2 is about 1e-310, so 1 / (s p_2) overflows, while the weight a
        # draw of index 2 adds, w_2 / (s p_2), is about 1 / s; the Monte
        # Carlo and the closed form both read 0 here
        X = DataMatrix([[1.0], [1.0]])
        w = [1.0, 1e-310]
        p = optimal_probabilities(X, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_exact_error(X, w, p, s) == exact_expected_error(X, w, p, s)

    def test_budget_guard(self):
        rng = RngStream(2)
        X = DataMatrix(rng.normal((50, 2)))
        p = uniform_probabilities(50)
        with pytest.raises(EnumerationLimitError):
            enumerate_exact_error(X, rng.normal(50), p, 4)

    def test_budget_counts_only_the_indices_p_can_draw(self):
        # 100^5 sequences over all rows, but 3^5 = 243 over p's support
        rng = RngStream(3)
        X = DataMatrix(rng.normal((100, 2)))
        w = np.zeros(100)
        w[[7, 40, 93]] = rng.normal(3)
        p = optimal_probabilities(X, w)
        assert p.support().tolist() == [7, 40, 93]
        assert enumerate_exact_error(X, w, p, 5) == pytest.approx(
            exact_expected_error(X, w, p, 5), rel=1e-12
        )

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


def _pipeline_off_support():
    # training moves the weight that w0 holds at an exact zero
    state = seed_state(8, 4, seed=0)
    w0 = state.w0.copy()
    w0[2] = 0.0
    w_star = train_least_squares(state.dataset.X, state.dataset.y, w0, 100)
    state = dataclasses.replace(state, w0=as_vector(w0), w_star=w_star)
    run_prune_pipeline(state, "sketch-p0", 3)


@pytest.mark.parametrize("call", [
    lambda: exact_expected_error(I2, [1.0, 1.0], ProbabilityVector([1.0, 0.0]), 1),
    lambda: mc_error_over_data([1.0, 0.0, 2.0], [1.0, 1.0, 2.0], 2, 4, 20,
                               RngStream(42), distribution="optimal"),
    lambda: theorem1_bound([1.0, 0.0], [1.0, 0.5], 1),
    lambda: bounds._init_beats_uniform(np.array([1.0, 0.0]), np.array([1.0, 0.5])),
    _pipeline_off_support,
], ids=["exact", "data-mc", "theorem1", "init-rule", "pipeline"])
def test_support_violation_raises_one_message(call):
    # every closed form needs p_k > 0 wherever w_k carries error, one rule
    with pytest.raises(
        SupportError, match="^sampling distribution has zero mass on an active weight$"
    ):
        call()


@pytest.mark.parametrize("call", [
    lambda: optimal_probabilities(DataMatrix(np.ones((3, 2))), np.zeros(3)),
    lambda: scores_to_probabilities(np.zeros(3)),
    lambda: mc_error_over_data(np.zeros(3), np.ones(3), 2, 4, 20, RngStream(43),
                               reference=1.0),
    lambda: theorem1_bound(np.zeros(3), np.zeros(3), 2),
    lambda: lemma2_bound(np.zeros(3), 2),
    lambda: bounds._init_beats_uniform(np.zeros(3), np.ones(3)),
], ids=["optimal", "scores", "data-mc", "theorem1", "lemma2", "init-rule"])
def test_zero_mass_raises_one_message(call):
    # every distribution is normalized by one rule, core._normalized
    with pytest.raises(DegenerateDistributionError,
                       match="^every sampling weight is zero$"):
        call()


def test_zero_entries_add_nothing():
    # two kinds of zero: w*_1 = 0 where p_1 > 0, and w*_3 = 0 where p_3 = 0
    # (w0_3 = 0); delta = w* - w0 is zero at 3 and, where w0 is not, at 4.
    # Every sum runs over all d entries, and each must equal the sum over
    # the nonzero ones written out here, with no warning.
    X = DataMatrix(np.array([[1.0, 2.0], [0.5, -1.0], [-1.5, 0.25],
                             [2.0, 1.0], [0.75, 0.5]]))
    w0 = np.array([1.5, -0.5, 2.0, 0.0, 0.4])
    w_star = np.array([0.7, 0.0, -1.2, 0.0, 0.4])
    s = 3
    p = optimal_probabilities(X, w0)
    pv, norms = p.values, np.linalg.norm(X.values, axis=1)
    assert pv[3] == 0.0 and pv[1] > 0.0
    base = X.values.T @ w_star
    delta = w_star - w0
    l1 = np.abs(w0).sum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            exact_expected_error(X, w_star, p, s),
            lemma3_bound(X, X, w0, w_star, s)[1],
            theorem1_bound(w0, w_star, s),
            bounds._expected_sketch_error(p, w_star, s),
        ]
    want = [
        sum(pv[k] * np.sum((X.values[k] * w_star[k] / pv[k] - base) ** 2)
            for k in (0, 1, 2, 4)) / s,
        sum(norms[k] ** 2 * w_star[k] ** 2 / pv[k] for k in (0, 2, 4)) / s,
        l1 * (sum(delta[k] ** 2 / abs(w0[k]) for k in (0, 1, 2))
              + 2.0 * sum(abs(delta[k]) for k in (0, 1, 2)) + l1) / s,
        sum(w_star[k] ** 2 * (1.0 - pv[k]) / pv[k] for k in (0, 2, 4)) / s,
    ]
    assert all(math.isfinite(g) for g in got)
    assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("k", [-300, 0, 300])
def test_errors_scale_exactly_as_the_weights_squared(k):
    # every error and bound is homogeneous of degree 2 in the weights, and a
    # power of two scales exactly, so 2^k w gives 2^(2k) times every bit,
    # the Monte Carlo means and standard errors included
    rng = RngStream(60)
    d, n, s = 5, 3, 3
    X = DataMatrix(rng.normal((d, n)))
    w0, w_star = rng.normal(d), rng.normal(d)
    p = optimal_probabilities(X, w0)

    def values(c):
        masks = mc_error_over_masks(X, c * w_star, p, s, 50, RngStream(61))
        data = mc_error_over_data(c * w0, c * w_star, s, n, 50, RngStream(62))
        return [
            exact_expected_error(X, c * w_star, p, s),
            enumerate_exact_error(X, c * w_star, p, s),
            theorem1_bound(c * w0, c * w_star, s),
            lemma4_uniform_bound(c * w_star, s),
            masks.empirical_error, masks.standard_error,
            data.empirical_error, data.standard_error,
        ]

    scaled = values(math.ldexp(1.0, k))
    assert scaled == [math.ldexp(v, 2 * k) for v in values(1.0)]
    assert all(v > 0.0 and math.isfinite(v) for v in scaled)


class TestBoundReport:
    @pytest.mark.parametrize("kind", ["equality", "upper-bound"])
    def test_satisfied_is_a_python_bool(self, kind):
        # numpy scalar fields compare to np.bool_, which is no bool subclass
        rep = BoundReport(np.float64(1.0), 0.0, np.float64(2.0), kind, 1)
        assert type(rep.satisfied()) is bool

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

    @pytest.mark.parametrize("empirical", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_empirical_error(self, empirical):
        with pytest.raises(ValueError, match="^empirical error must be finite$"):
            BoundReport(empirical, 0.1, 1.0, "equality", 10)

    @pytest.mark.parametrize("se", [-0.1, math.nan, math.inf])
    def test_rejects_bad_standard_error(self, se):
        with pytest.raises(
            ValueError, match="^standard error must be finite and nonnegative$"
        ):
            BoundReport(1.0, se, 1.0, "equality", 10)


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


def _per_mask_errors(X, w, p, s, trials, rng):
    """mc_error_over_masks' per-trial errors built one mask at a time from
    the public API, with one dense product each."""
    wv = np.asarray(w, dtype=float)
    base = X.values.T @ wv
    errors = np.empty(trials)
    for t in range(trials):
        diff = base - X.values.T @ (wv * sample_sketch_mask(p, s, rng).values)
        errors[t] = diff @ diff
    return errors


class TestMaskErrorBlocks:
    # A block holds 2^15 // (s n) trials: 256 at (n, s) = (32, 4), so 1100
    # ends on a partial block; 1092 at s=10 > d=4, where indices repeat; one
    # when s n = 80000 exceeds a block. The (6, 5) distribution has no
    # mass on two indices where w != 0.
    @pytest.mark.parametrize("d, n, s, trials, unsampled", [
        (64, 32, 4, 1100, ()),
        (4, 3, 10, 5000, ()),
        (6, 5, 3, 700, (1, 4)),
        (3, 2, 40_000, 3, ()),
    ])
    def test_matches_per_mask_reference(self, d, n, s, trials, unsampled):
        source = RngStream(50)
        X = DataMatrix(source.normal((d, n)))
        w = source.normal(d)
        q = source.uniform(d)
        q[list(unsampled)] = 0.0
        p = ProbabilityVector(q / q.sum())
        twin = RngStream(51)
        idx = sketch._categorical_indices(p.values, RngStream(51).uniform((trials, s)))
        step = bounds._over_support(w, s * p.values)
        got = bounds._sequence_errors(X, X.values.T @ w, step, idx)
        want = _per_mask_errors(X, w, p, s, trials, twin)
        # An error that shrinks as 1/s is compared on the scale of the
        # unmasked features, whose rounding it inherits.
        scale = float(np.sum((X.values.T @ w) ** 2))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        used = RngStream(51)
        rep = mc_error_over_masks(X, w, p, s, trials, used)
        # the stream ends where the per-mask loop leaves it
        assert used.uniform() == twin.uniform()
        assert rep.trials == trials
        assert rep.empirical_error == pytest.approx(want.mean(), rel=1e-12)
        if trials > 1:
            se = want.std(ddof=1) / math.sqrt(trials)
            assert rep.standard_error == pytest.approx(se, rel=1e-12)

    def test_memory_stays_flat_in_trials(self, traced_peak):
        # Beside the 8-byte error of each trial, the masks, draws and
        # features of all 1e5 trials at once would take about 10 MiB.
        X = DataMatrix(np.arange(1.0, 13.0).reshape(4, 3))
        trials = 100_000
        _, peak = traced_peak(mc_error_over_masks, X, np.ones(4),
                              uniform_probabilities(4), 2, trials, RngStream(52))
        assert peak < 8 * trials + 2**20

    def test_memory_stays_flat_in_budget(self, traced_peak):
        # A large s puts one trial in a block, so the peak is a few arrays of
        # s entries, not one per trial as a block sized by d and n alone
        # would hold.
        X = DataMatrix(np.arange(1.0, 13.0).reshape(4, 3))
        s, trials = 2**18, 8
        _, peak = traced_peak(mc_error_over_masks, X, np.ones(4),
                              uniform_probabilities(4), s, trials, RngStream(53))
        assert peak < 6 * 8 * s


def _frame_draws(rng, d, n, x_trials):
    """The (a, b) of mc_error_over_data's trials, drawn in its documented
    order: a key from rng, then in trial order the (x_trials, d) normals
    from rng and, when n > 1, the chi-squares with n - 1 degrees of freedom
    from the stream RngStream(key)."""
    remainders = RngStream(int(rng.integers(0, 2**63)))
    shape = (x_trials, d)
    a = rng.normal(shape) / math.sqrt(n)
    b2 = remainders.chisquare(n - 1, shape) / n if n > 1 else np.zeros(shape)
    yield from zip(a, np.sqrt(b2))


def _frame_matrix(a, b, w_star):
    """The d x 2 matrix whose row k is a_k e + b_k e_perp, with e the unit
    vector along S_(k-1) = sum_(l<k) w*_l X_(l) (the first axis while S is
    zero) and e_perp e turned a quarter."""
    rows = np.empty((a.size, 2))
    S = np.zeros(2)
    for k in range(a.size):
        t = np.linalg.norm(S)
        e = S / t if t > 0.0 else np.array([1.0, 0.0])
        rows[k] = a[k] * e + b[k] * np.array([-e[1], e[0]])
        S += w_star[k] * rows[k]
    return DataMatrix(rows)


def _per_trial_mean_and_se(w0, w_star, s, n, x_trials, rng, distribution):
    """mc_error_over_data's estimate built one matrix at a time from the
    public API, each matrix the d x 2 frame matrix of one trial's draws."""
    d = len(w0)
    errors = []
    for a, b in _frame_draws(rng, d, n, x_trials):
        X = _frame_matrix(a, b, w_star)
        if distribution == "optimal":
            p = optimal_probabilities(X, w0)
        else:
            p = uniform_probabilities(d)
        errors.append(exact_expected_error(X, w_star, p, s))
    errors = np.array(errors)
    se = errors.std(ddof=1) / math.sqrt(x_trials) if x_trials > 1 else 0.0
    return errors.mean(), se


def _chi_mean(n):
    """E||X_(k)|| for a row of n iid N(0, 1/n) entries."""
    return math.sqrt(2.0 / n) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2))


class TestMcOverData:
    # At d=64 a block holds 128 trials, so 37 trials fill part of one block
    # and 600 end on a partial one; at d=200 a block holds 40.
    @pytest.mark.parametrize("distribution", ["optimal", "uniform"])
    @pytest.mark.parametrize(
        "d, n, x_trials",
        [(64, 32, 1), (64, 32, 37), (7, 3, 37), (200, 170, 3), (64, 32, 600),
         (8, 1, 37), (1, 5, 9)],
    )
    def test_matches_per_trial_reference(self, distribution, d, n, x_trials):
        source = RngStream(31)
        w0 = source.normal(d)
        w_star = w0 + 0.5 * source.normal(d)
        rep = mc_error_over_data(
            w0, w_star, 4, n, x_trials, RngStream(32), distribution=distribution
        )
        mean, se = _per_trial_mean_and_se(
            w0, w_star, 4, n, x_trials, RngStream(32), distribution
        )
        assert rep.trials == x_trials
        assert rep.empirical_error == pytest.approx(mean, rel=1e-12)
        assert rep.standard_error == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("spread", [0.0, 0.1])
    def test_graded_weights_match_per_trial_reference(self, n, spread):
        # w0 = (1e-4)^k: the raw difference sum c_k^2 / p_k - t_d^2 loses
        # about five digits here; w* = w0 is the self-mask case.
        w0 = 1e-4 ** np.arange(8.0)
        w_star = w0 * (1.0 + spread * RngStream(33).normal(8))
        rep = mc_error_over_data(w0, w_star, 4, n, 37, RngStream(34))
        mean, se = _per_trial_mean_and_se(w0, w_star, 4, n, 37, RngStream(34), "optimal")
        assert rep.empirical_error > 0.0
        assert rep.empirical_error == pytest.approx(mean, rel=1e-12)
        assert rep.standard_error == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 5])
    def test_single_weight_is_exactly_zero(self, n):
        rep = mc_error_over_data([0.3], [-2.0], 1, n, 50, RngStream(35))
        assert (rep.empirical_error, rep.standard_error) == (0.0, 0.0)

    @pytest.mark.parametrize(
        # d=4096 takes 2 trials a block, so 11 take six
        "d, n, x_trials", [(8, 5, 37), (200, 170, 2), (8, 1, 37), (4096, 3, 11)],
    )
    def test_consumes_the_documented_draws(self, d, n, x_trials):
        used, twin = RngStream(40), RngStream(40)
        w = RngStream(41).normal(d)
        mc_error_over_data(w, w, 2, n, x_trials, used)
        for _ in _frame_draws(twin, d, n, x_trials):
            pass
        np.testing.assert_array_equal(used.normal(4), twin.normal(4))

    @pytest.mark.parametrize("n", [1, 5])
    def test_consecutive_calls_draw_fresh_remainders(self, n):
        # A child stream fixed by rng, not drawn from it, would hand the
        # second call the first call's remainders.
        source = RngStream(54)
        w0 = source.normal(8)
        w_star = w0 + 0.5 * source.normal(8)
        used, twin = RngStream(55), RngStream(55)
        for _ in range(2):
            rep = mc_error_over_data(w0, w_star, 4, n, 37, used)
            mean, se = _per_trial_mean_and_se(w0, w_star, 4, n, 37, twin, "optimal")
            assert rep.empirical_error == pytest.approx(mean, rel=1e-12)
            assert rep.standard_error == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("distribution", ["optimal", "uniform"])
    @pytest.mark.parametrize("d, n", [(64, 32), (7, 3), (8, 2), (8, 1)])
    def test_mean_meets_closed_form(self, distribution, d, n):
        # E_X of the exact error: (mu_n^2 / s)(||w0||_1 sum w*^2 / |w0| - ||w*||^2)
        # under optimal p, (d - 1) ||w*||^2 / s under uniform p.
        source = RngStream(36)
        w0 = source.normal(d)
        w_star = w0 + 0.5 * source.normal(d)
        s = 4
        rep = mc_error_over_data(
            w0, w_star, s, n, 20_000, RngStream(37), distribution=distribution
        )
        norm2 = float(w_star @ w_star)
        if distribution == "optimal":
            A = np.abs(w0).sum() * np.sum(w_star**2 / np.abs(w0))
            expected = _chi_mean(n) ** 2 * (A - norm2) / s
        else:
            expected = (d - 1) * norm2 / s
        assert abs(rep.empirical_error - expected) <= 4.0 * rep.standard_error

    def test_inactive_initial_weight_under_active_target_raises(self):
        w0 = np.array([1.0, 0.0, 2.0])
        with pytest.raises(SupportError):
            mc_error_over_data(w0, [1.0, 1.0, 2.0], 2, 4, 20, RngStream(42))

    def test_zero_initial_weights_raise(self):
        # An explicit reference skips theorem1_bound, which rejects zero w0 too.
        with pytest.raises(DegenerateDistributionError, match="every sampling weight is zero"):
            mc_error_over_data(
                np.zeros(3), np.ones(3), 2, 4, 20, RngStream(43), reference=1.0
            )

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_sample_count_rejected_before_drawing(self, n):
        used, twin = RngStream(44), RngStream(44)
        with pytest.raises(ValueError, match="n must be >= 1"):
            mc_error_over_data([1.0, 2.0], [1.0, 2.0], 1, n, 5, used)
        assert used.normal() == twin.normal()

    def test_memory_stays_flat_in_trials(self, traced_peak):
        # One unchunked block of 2000 trials would take 32 MiB.
        w0 = RngStream(45).normal(64)
        rng = RngStream(46)
        _, peak = traced_peak(mc_error_over_data, w0, w0, 8, 32, 2000, rng)
        assert peak < 2 * 2**20

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



def _mask_mc(d, n, s):
    rng = RngStream(56)
    X = DataMatrix(rng.normal((d, n)))
    w = rng.normal(d)
    rep = mc_error_over_masks(X, w, optimal_probabilities(X, w), s, 40, rng)
    return rep.empirical_error, rep.standard_error


def _data_mc(n, distribution):
    w0 = RngStream(57).normal(8)
    w_star = w0 + 0.5 * RngStream(58).normal(8)
    rep = mc_error_over_data(
        w0, w_star, 4, n, 37, RngStream(59), distribution=distribution
    )
    return rep.empirical_error, rep.standard_error


def _enumeration():
    rng = RngStream(60)
    X = DataMatrix(rng.normal((6, 4)))
    w = rng.normal(6)
    return enumerate_exact_error(X, w, optimal_probabilities(X, w), 3)


def _fresh_norms(order):
    # the norms are cached on a matrix, so each call builds its own
    values = np.array(RngStream(61).normal((1000, 40)), order=order)
    return row_norms(DataMatrix(values)).tolist()


# Every pass streamed in core's blocks, on small inputs. At 2^6 entries a
# block holds one mask trial at (n, s) = (170, 3) and two data trials at
# d=8, so 37 end on a partial block; the enumeration's 216 sequences take 44
# chunks of at most 5, and a C-order norm block holds one row.
_BLOCKED_PASSES = {
    "masks-d32": lambda: _mask_mc(32, 16, 4),
    "masks-d200": lambda: _mask_mc(200, 170, 3),
    "data-optimal-n1": lambda: _data_mc(1, "optimal"),
    "data-optimal-n32": lambda: _data_mc(32, "optimal"),
    "data-uniform-n1": lambda: _data_mc(1, "uniform"),
    "data-uniform-n32": lambda: _data_mc(32, "uniform"),
    "enumeration": _enumeration,
    "norms-C": lambda: _fresh_norms("C"),
    "norms-F": lambda: _fresh_norms("F"),
}


@pytest.mark.parametrize("block", [2**6, 2**10, 2**15, 2**20])
@pytest.mark.parametrize("case", _BLOCKED_PASSES)
def test_block_size_changes_no_result(case, block, monkeypatch):
    want = _BLOCKED_PASSES[case]()
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block)
    assert _BLOCKED_PASSES[case]() == want
