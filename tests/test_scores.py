import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchprune import (
    DataMatrix,
    DegenerateDistributionError,
    InvalidDensityError,
    RngStream,
    features,
    gen_sparse_X,
    optimal_probabilities,
    row_norms,
    scores_to_probabilities,
    select_randomized,
    select_topk,
    snip_scores_l1,
    synflow_scores,
)


class TestSynflowScores:
    def test_all_ones_input(self):
        np.testing.assert_array_equal(
            synflow_scores([1.0, 1.0], [2.0, -3.0]), [2.0, 3.0]
        )

    def test_row_norm_input(self):
        norms = row_norms(DataMatrix([[3.0, 0.0], [0.0, 4.0]]))
        np.testing.assert_array_equal(synflow_scores(norms, [2.0, 1.0]), [6.0, 4.0])

    def test_zero_weights(self):
        np.testing.assert_array_equal(synflow_scores([1.0, 1.0], [0.0, 0.0]), [0.0, 0.0])

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            synflow_scores([-1.0, 1.0], [1.0, 1.0])


class TestSnipScores:
    def test_hand_example(self):
        X = DataMatrix([[2.0, 0.0], [0.0, -3.0]])
        g = snip_scores_l1(X, [0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(g, [1.0, 1.5])

    def test_zero_weights_zero_residual(self):
        X = DataMatrix([[2.0, 0.0], [0.0, -3.0]])
        g = snip_scores_l1(X, [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_invariant_to_label_scaling_preserving_signs(self):
        rng = RngStream(2)
        X = DataMatrix(rng.normal((5, 7)))
        w = rng.normal(5)
        f = features(X, w)
        a = snip_scores_l1(X, 0.1 * f, w)
        b = snip_scores_l1(X, 0.5 * f, w)
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_scores_are_read_only_arrays():
    X = DataMatrix([[2.0, 0.0], [0.0, -3.0]])
    for scores in (
        synflow_scores([1.0, 1.0], [2.0, -3.0]),
        snip_scores_l1(X, [0.0, 0.0], [1.0, 1.0]),
    ):
        assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
        assert not scores.flags.writeable


class TestScoresToProbabilities:
    def test_simple(self):
        np.testing.assert_allclose(scores_to_probabilities([6.0, 4.0]).values, [0.6, 0.4])
        np.testing.assert_array_equal(scores_to_probabilities([0.0, 5.0]).values, [0.0, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            scores_to_probabilities([0.0, 0.0])

    def test_snip_sparse_matches_optimal(self):
        X = DataMatrix([[2.0, 0.0], [0.0, -3.0]])
        induced = scores_to_probabilities(snip_scores_l1(X, [0.0, 0.0], [1.0, 1.0]))
        np.testing.assert_allclose(induced.values, [0.4, 0.6])
        direct = optimal_probabilities(X, [1.0, 1.0])
        np.testing.assert_allclose(induced.values, direct.values, rtol=1e-12)


class TestSelectTopk:
    def test_hand_example(self):
        np.testing.assert_array_equal(select_topk([6.0, 4.0, 5.0], 2).values, [1.0, 0.0, 1.0])

    def test_full_budget(self):
        np.testing.assert_array_equal(select_topk([6.0, 4.0, 5.0], 3).values, [1.0, 1.0, 1.0])

    def test_tie_break_lower_index(self):
        np.testing.assert_array_equal(select_topk([1.0, 1.0, 1.0], 1).values, [1.0, 0.0, 0.0])

    def test_budget_out_of_range(self):
        with pytest.raises(InvalidDensityError):
            select_topk([1.0, 2.0], 3)
        with pytest.raises(InvalidDensityError):
            select_topk([1.0, 2.0], 0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 50.0),
        s=st.integers(1, 6),
    )
    def test_invariant_to_positive_rescaling(self, seed, scale, s):
        scores = RngStream(seed).uniform(6) + 0.01
        a = select_topk(scores, s).values
        b = select_topk(scale * scores, s).values
        np.testing.assert_array_equal(a, b)


class TestSelectRandomized:
    def test_deterministic_when_support_equals_budget(self):
        m = select_randomized([1.0, 0.0], 1, RngStream(0))
        np.testing.assert_array_equal(m.values, [1.0, 0.0])
        m = select_randomized([1.0, 1.0], 2, RngStream(0))
        np.testing.assert_array_equal(m.values, [1.0, 1.0])

    def test_single_draw_frequency(self):
        trials = 100_000
        rng = RngStream(42)
        hits = 0
        for _ in range(trials):
            hits += int(select_randomized([3.0, 1.0], 1, rng).values[0] == 1.0)
        freq = hits / trials
        se = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) < 4.0 * se

    def test_inclusion_probabilities_match_sequential_draws(self):
        scores = np.array([3.0, 1.0, 1.0, 0.5])
        s = 2
        exact = np.zeros(scores.size)
        for order in itertools.permutations(range(scores.size), s):
            prob, left = 1.0, scores.sum()
            for i in order:
                prob *= scores[i] / left
                left -= scores[i]
            exact[list(order)] += prob
        np.testing.assert_allclose(exact, [0.8424, 0.4586, 0.4586, 0.2404], atol=1e-4)
        trials = 100_000
        rng = RngStream(11)
        kept = np.zeros(scores.size)
        for _ in range(trials):
            kept += select_randomized(scores, s, rng).values
        se = np.sqrt(exact * (1.0 - exact) / trials)
        assert np.all(np.abs(kept / trials - exact) < 4.0 * se)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_score_beats_zero_scores(self):
        rng = RngStream(0)
        for zeros in (1, 3):
            scores = [0.0] * zeros + [1e-310, 1.0]
            expect = [0.0] * zeros + [1.0, 1.0]
            for _ in range(1000):
                np.testing.assert_array_equal(
                    select_randomized(scores, 2, rng).values, expect
                )

    def test_consumes_one_uniform_per_weight(self):
        rng, twin = RngStream(3), RngStream(3)
        select_randomized([2.0, 0.0, 1.0, 5.0, 0.5], 2, rng)
        twin.uniform(5)
        assert rng.uniform() == twin.uniform()

    def test_insufficient_positive_scores(self):
        with pytest.raises(DegenerateDistributionError):
            select_randomized([1.0, 0.0, 0.0], 2, RngStream(0))

    @pytest.mark.filterwarnings("error")
    def test_keys_in_place_keep_the_indices_of_keys_on_copies(self):
        # The reference computes the keys on boolean-indexed copies of the
        # positive entries, as select_randomized once did; the keys computed
        # in the draw's own buffer must keep the same indices, bit for bit.
        def reference(scores, s, u):
            positive = scores > 0.0
            keys = np.full(scores.size, np.inf)
            with np.errstate(divide="ignore"):
                keys[positive] = np.log(-np.log1p(-u[positive])) - np.log(
                    scores[positive]
                )
            m = np.zeros(scores.size)
            m[np.argpartition(keys, s - 1)[:s]] = 1.0
            return m

        class ListedUniforms:
            """Hands out the given uniforms, recording each draw's size."""

            def __init__(self, u):
                self.u, self.sizes = u, []

            def uniform(self, size=None):
                self.sizes.append(size)
                return self.u[:size].copy()

        rng = RngStream(9)
        for _ in range(200):
            d = int(rng.integers(2, 40))
            scores = rng.uniform(d) * 10.0 ** rng.integers(-3, 3, size=d)
            kind = rng.integers(0, 4, size=d)
            scores[kind == 0] = 0.0
            scores[kind == 1] = -0.0
            scores[kind == 2] *= 1e-312  # subnormal: at most 1e-310
            positive = np.count_nonzero(scores)
            if positive == 0:
                continue
            s = int(rng.integers(1, positive + 1))
            u = rng.uniform(d)
            # a forced u == 0, at a zero score and at a positive one
            u[np.flatnonzero(scores == 0.0)[:1]] = 0.0
            u[np.flatnonzero(scores > 0.0)[:1]] = 0.0
            for frozen in (False, True):
                given = scores.copy()
                given.setflags(write=not frozen)
                stub = ListedUniforms(u)
                m = select_randomized(given, s, stub)
                np.testing.assert_array_equal(m.values, reference(scores, s, u))
                np.testing.assert_array_equal(given, scores)
                assert np.array_equal(np.signbit(given), np.signbit(scores))
                assert stub.sizes == [d]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10), s=st.integers(1, 10))
    def test_exactly_s_ones(self, seed, d, s):
        if s > d:
            s = d
        scores = RngStream(seed).uniform(d) + 1e-6
        m = select_randomized(scores, s, RngStream(seed, 1))
        assert m.kind == "binary"
        assert m.nnz == s
        assert set(np.unique(m.values)) <= {0.0, 1.0}


def test_synflow_probabilities_match_optimal_many_instances():
    rng = RngStream(13)
    for _ in range(25):
        d = int(rng.integers(2, 30))
        n = int(rng.integers(1, 12))
        X = DataMatrix(rng.normal((d, n)))
        w = rng.normal(d)
        induced = scores_to_probabilities(synflow_scores(row_norms(X), w))
        direct = optimal_probabilities(X, w)
        np.testing.assert_allclose(induced.values, direct.values, rtol=1e-12, atol=1e-15)


def test_snip_sparse_probabilities_match_optimal_many_instances():
    rng = RngStream(14)
    for _ in range(25):
        d = int(rng.integers(2, 30))
        n = int(rng.integers(1, 12))
        X = gen_sparse_X(d, n, rng)
        w = rng.normal(d)
        induced = scores_to_probabilities(snip_scores_l1(X, np.zeros(n), w))
        direct = optimal_probabilities(X, w)
        np.testing.assert_allclose(induced.values, direct.values, rtol=1e-12, atol=1e-15)
