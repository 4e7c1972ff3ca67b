import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchprune import (
    DataMatrix,
    DegenerateDistributionError,
    InvalidDensityError,
    ProbabilityVector,
    RngStream,
    optimal_probabilities,
    sample_sketch_mask,
    uniform_probabilities,
)
from sketchprune import sketch
from sketchprune.sketch import _categorical_indices


class TestOptimalProbabilities:
    def test_diagonal_example(self):
        p = optimal_probabilities(DataMatrix([[3.0, 0.0], [0.0, 4.0]]), [2.0, 1.0])
        np.testing.assert_allclose(p.values, [0.6, 0.4])

    def test_single_support(self):
        p = optimal_probabilities(DataMatrix(np.eye(2)), [1.0, 0.0])
        np.testing.assert_array_equal(p.values, [1.0, 0.0])

    def test_symmetric(self):
        p = optimal_probabilities(DataMatrix(np.eye(3)), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(p.values, [1 / 3, 1 / 3, 1 / 3])

    def test_zero_numerator_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            optimal_probabilities(DataMatrix(np.eye(2)), [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            optimal_probabilities(DataMatrix(np.eye(2)), [1.0, 1.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 100.0),
        flip=st.booleans(),
    )
    def test_scale_invariance_in_w(self, seed, scale, flip):
        rng = RngStream(seed)
        X = DataMatrix(rng.normal((5, 3)))
        w = rng.normal(5)
        c = -scale if flip else scale
        base = optimal_probabilities(X, w).values
        scaled = optimal_probabilities(X, c * w).values
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-15)


def test_uniform_probabilities():
    np.testing.assert_array_equal(uniform_probabilities(4).values, [0.25] * 4)
    np.testing.assert_array_equal(uniform_probabilities(1).values, [1.0])
    np.testing.assert_array_equal(uniform_probabilities(2).values, [0.5, 0.5])


class TestCategoricalIndices:
    def test_boundary_tie_goes_to_lower_index(self):
        p = np.array([0.5, 0.5])
        assert _categorical_indices(p, np.array([0.5]))[0] == 0
        assert _categorical_indices(p, np.array([0.5 + 1e-12]))[0] == 1

    def test_zero_draw_lands_on_first_positive(self):
        p = np.array([0.0, 0.3, 0.7])
        assert _categorical_indices(p, np.array([0.0]))[0] == 1

    def test_top_of_range(self):
        p = np.array([0.3, 0.7, 0.0])
        assert _categorical_indices(p, np.array([1.0 - 1e-16]))[0] == 1

    def test_never_returns_zero_probability_index(self):
        p = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        us = np.linspace(0.0, 1.0 - 1e-12, 1001)
        idx = _categorical_indices(p, us)
        assert set(np.unique(idx)) <= {1, 3}


class TestSampleSketchMask:
    def test_degenerate_distribution_is_deterministic(self):
        m = sample_sketch_mask(ProbabilityVector([1.0, 0.0]), 3, RngStream(0))
        np.testing.assert_allclose(m.values, [1.0, 0.0])
        assert m.kind == "sketch"

    def test_single_draw_two_outcomes(self):
        p = ProbabilityVector([0.5, 0.5])
        seen = set()
        for k in range(50):
            m = sample_sketch_mask(p, 1, RngStream(0, k + 1))
            assert sorted(m.values.tolist()) == [0.0, 2.0]
            seen.add(tuple(m.values))
        assert len(seen) == 2

    def test_mean_mask_entry_is_one(self):
        rng = RngStream(5)
        X = DataMatrix(rng.normal((6, 3)))
        p = optimal_probabilities(X, rng.normal(6))
        trials = 20_000
        acc = np.zeros(6)
        for _ in range(trials):
            acc += sample_sketch_mask(p, 3, rng).values
        mean = acc / trials
        # SE of each entry is at most sqrt(Var(m_i))/sqrt(trials); use the
        # exact per-entry variance (1/s)(1/p_i - 1)
        se = np.sqrt((1.0 / (3 * p.values) - 1.0 / 3) / trials)
        np.testing.assert_array_less(np.abs(mean - 1.0), 4.0 * se)

    def test_zero_budget_rejected(self):
        with pytest.raises(InvalidDensityError):
            sample_sketch_mask(ProbabilityVector([1.0]), 0, RngStream(0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 6), d=st.integers(2, 9))
    def test_support_never_exceeds_budget(self, seed, s, d):
        rng = RngStream(seed)
        raw = rng.uniform(d) + 1e-3
        p = ProbabilityVector(raw / raw.sum())
        m = sample_sketch_mask(p, s, rng)
        assert m.nnz <= s
        assert (m.values >= 0).all()


def _reference_indices(p, us):
    """The lookup over the cumulative sum of all of p, which then moves each
    1-d draw that hit a zero-probability index to the nearest positive one."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, us, side="left")
    hit_zero = np.flatnonzero(p[idx] == 0.0)
    if hit_zero.size:
        positive = np.flatnonzero(p > 0.0)
        for b in hit_zero:
            at = np.searchsorted(positive, idx[b], side="left")
            idx[b] = positive[at] if at < positive.size else positive[-1]
    return idx


def _reference_mask(p, s, rng):
    """A sketch mask accumulated draw by draw with np.add.at."""
    pv = p.values
    idx = _reference_indices(pv, np.atleast_1d(rng.uniform(s)))
    m = np.zeros(pv.size)
    np.add.at(m, idx, 1.0 / (s * pv[idx]))
    return m


def _distributions_with_zeros(count, seed):
    """Seeded distributions over 1 to 8 indices, about 40% of whose entries
    are zero (leading, interior and trailing ones among them), and a few
    whose tiny entries leave the cumulative sum flat."""
    fixed = [
        [0.0, 1.0], [1.0, 0.0], [0.0, 0.3, 0.7], [0.3, 0.7, 0.0],
        [0.0, 0.5, 0.0, 0.5, 0.0], [1e-20, 0.5, 0.0, 0.5],
        [0.5, 1e-20, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
    ]
    out = [ProbabilityVector(np.array(v) / sum(v)) for v in fixed]
    rng = RngStream(seed)
    while len(out) < count:
        raw = rng.uniform(1 + len(out) % 8)
        raw[rng.uniform(raw.size) < 0.4] = 0.0
        if raw.any():
            out.append(ProbabilityVector(raw / raw.sum()))
    return out


def _boundary_draws(p):
    """0, and each cumulative boundary of p with its neighbours just below
    and just above, kept inside [0, 1)."""
    cum = np.cumsum(p)
    near = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    return near[(near >= 0.0) & (near < 1.0)]


class TestOneLookupAndBuilder:
    """The loop-free lookup and the bincount builder give bit for bit what
    the repair loop and np.add.at gave, and read the stream as far."""

    def test_indices_match_the_repair_loop(self):
        rng = RngStream(23)
        for p in _distributions_with_zeros(3000, 1):
            pv = p.values
            us = np.concatenate([_boundary_draws(pv), rng.uniform(40)])
            expected = _reference_indices(pv, us)
            np.testing.assert_array_equal(_categorical_indices(pv, us), expected)
            assert (pv[expected] > 0.0).all()

    def test_two_dimensional_draws(self):
        rng = RngStream(29)
        for p in _distributions_with_zeros(500, 2):
            pv = p.values
            us = rng.uniform((3, 7))
            edges = _boundary_draws(pv)[:14]
            us.ravel()[: edges.size] = edges
            idx = _categorical_indices(pv, us)
            assert idx.shape == (3, 7)
            np.testing.assert_array_equal(
                idx, _reference_indices(pv, us.ravel()).reshape(3, 7)
            )

    def test_masks_match_add_at_and_stop_at_the_same_draw(self):
        for k, p in enumerate(_distributions_with_zeros(1000, 3)):
            s = 1 + k % 12
            ours, theirs = RngStream(k, 7), RngStream(k, 7)
            m = sample_sketch_mask(p, s, ours).values
            assert m.tobytes() == _reference_mask(p, s, theirs).tobytes()
            assert ours.uniform() == theirs.uniform()

    def test_mask_adopts_the_built_array(self, monkeypatch):
        # np.bincount's fresh array is handed over frozen, not copied
        build, built = np.bincount, []

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(sketch.np, "bincount", spy)
        mask = sample_sketch_mask(uniform_probabilities(50), 7, RngStream(3))
        assert len(built) == 1 and np.shares_memory(mask.values, built[0])

