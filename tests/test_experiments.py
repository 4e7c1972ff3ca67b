import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sketchprune import (
    METHODS,
    DataMatrix,
    DivergenceError,
    InvalidDensityError,
    ProbabilityVector,
    RngStream,
    SupportError,
    approximation_error,
    as_vector,
    features,
    gen_chi_input,
    gen_normal_X,
    gen_sparse_X,
    lemma4_uniform_bound,
    make_dataset,
    max_hessian_eigenvalue,
    optimal_probabilities,
    row_norms,
    run_prune_pipeline,
    sample_sketch_mask,
    seed_state,
    select_randomized,
    snip_scores_l1,
    theorem1_bound,
    train_least_squares,
)
from sketchprune import experiments
from sketchprune.experiments import MASK_METHODS


def _run(method, seed, d=16, n=12, s=4, **settings):
    """One cell on a state drawn for that cell alone."""
    return run_prune_pipeline(seed_state(d, n, seed, **settings), method, s)


class TestGenNormalX:
    def test_shape(self):
        assert gen_normal_X(5, 3, RngStream(0)).values.shape == (5, 3)

    def test_scaled_draw_is_held_without_a_copy(self):
        X = gen_normal_X(6, 4, RngStream(0))
        np.testing.assert_array_equal(X.values, RngStream(0).normal((6, 4)) / 2.0)
        assert X.values.base is None and not X.values.flags.writeable
        assert gen_sparse_X(6, 4, RngStream(0)).values.base is None

    def test_row_norm_second_moment(self):
        X = gen_normal_X(10_000, 32, RngStream(1))
        sq = (X.values**2).sum(axis=1)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1.0) < 4.0 * se

    def test_entry_mean_near_zero(self):
        X = gen_normal_X(200, 100, RngStream(2))
        entries = X.values.ravel() * math.sqrt(100)
        se = entries.std(ddof=1) / math.sqrt(entries.size)
        assert abs(entries.mean()) < 4.0 * se


class TestGenChiInput:
    def test_all_positive(self):
        assert (gen_chi_input(500, RngStream(3)) > 0).all()

    def test_second_moment(self):
        v = gen_chi_input(10_000, RngStream(4))
        sq = v**2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1.0) < 4.0 * se

    def test_concentration_improves_with_n(self):
        wide = gen_chi_input(2_000, RngStream(5), n=128)
        narrow = gen_chi_input(2_000, RngStream(6), n=8)
        assert wide.std(ddof=1) < narrow.std(ddof=1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_sample_count_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            gen_chi_input(5, RngStream(0), n=n)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_whole_matrix_norm(self, seed):
        # The rows are drawn and reduced a block at a time; the norms, and
        # the stream left behind, are those of one whole (d, n) draw, at
        # sizes on both sides of a block and over many blocks.
        rows = experiments._CHI_BLOCK_ELEMENTS // 128
        shapes = [(d, 128) for d in (1, rows - 1, rows, rows + 1, 5000, 65536, 100_000)]
        shapes += [(1000, 3), (3, experiments._CHI_BLOCK_ELEMENTS + 1)]
        for d, n in shapes:
            rng, twin = RngStream(seed), RngStream(seed)
            reference = row_norms(gen_normal_X(d, n, twin))
            np.testing.assert_array_equal(gen_chi_input(d, rng, n), reference)
            assert rng.uniform() == twin.uniform()


class TestGenSparseX:
    def test_one_nonzero_per_row(self):
        X = gen_sparse_X(40, 9, RngStream(7))
        assert ((X.values != 0).sum(axis=1) == 1).all()

    def test_row_norm_is_single_entry(self):
        X = gen_sparse_X(12, 5, RngStream(8))
        np.testing.assert_allclose(
            np.linalg.norm(X.values, axis=1), np.abs(X.values).max(axis=1)
        )


class TestMakeDataset:
    def test_noiseless_labels(self):
        ds = make_dataset(6, 4, 0.0, RngStream(9))
        np.testing.assert_allclose(ds.y, features(ds.X, ds.w_true), rtol=1e-12)

    def test_noise_perturbs_labels(self):
        clean = make_dataset(6, 4, 0.0, RngStream(10))
        noisy = make_dataset(6, 4, 0.5, RngStream(10))
        assert not np.allclose(clean.y, noisy.y)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            make_dataset(6, 4, -0.1, RngStream(0))


def test_max_hessian_eigenvalue_matches_dense_solver():
    # n > d decomposes X X^T, n <= d the Gram matrix X^T X
    rng = RngStream(11)
    for d, n in ((8, 20), (20, 8)):
        X = gen_normal_X(d, n, rng)
        top = max(np.linalg.eigvalsh(2.0 * X.values @ X.values.T / X.n))
        assert max_hessian_eigenvalue(X) == pytest.approx(top, rel=1e-12)


@pytest.mark.parametrize("d, n", [
    (1, 1), (1, 5), (5, 1), (8, 8), (24, 24), (64, 32), (8, 40), (300, 100),
])
def test_default_step_size_is_nine_tenths_of_the_stability_threshold(d, n):
    # lr = 0.9 * 2 / lambda_max, so lr * lambda_max = 1.8
    for seed in range(3):
        state = seed_state(d, n, seed)
        Xv = state.dataset.X.values
        top = np.linalg.eigvalsh(2.0 * Xv @ Xv.T / n)[-1]
        assert state.lr * top == pytest.approx(1.8, rel=1e-12)


def _weight_space_gd(X, y, w0, steps, lr):
    """Reference: gradient descent stepped on the d weights."""
    Xv, n = X.values, X.n
    w = np.array(w0, dtype=np.float64)
    residual = Xv.T @ w - y
    for _ in range(steps):
        w -= lr * (2.0 / n) * (Xv @ residual)
        residual = Xv.T @ w - y
    return w


class TestTrainLeastSquares:
    def test_zero_steps_returns_start(self):
        rng = RngStream(12)
        ds = make_dataset(5, 9, 0.0, rng)
        w0 = rng.normal(5)
        np.testing.assert_array_equal(
            train_least_squares(ds.X, ds.y, w0, steps=0), w0
        )

    def test_converges_to_normal_equations(self):
        rng = RngStream(13)
        ds = make_dataset(6, 40, 0.05, rng)
        w0 = rng.normal(6) / math.sqrt(6)
        trained = train_least_squares(ds.X, ds.y, w0, steps=4_000)
        solution, *_ = np.linalg.lstsq(ds.X.values.T, ds.y, rcond=None)
        np.testing.assert_allclose(trained, solution, atol=1e-8)

    def test_training_reduces_loss(self):
        rng = RngStream(14)
        ds = make_dataset(10, 30, 0.1, rng)
        w0 = rng.normal(10)

        def loss(w):
            r = features(ds.X, w) - ds.y
            return float(r @ r) / ds.X.n

        trained = train_least_squares(ds.X, ds.y, w0, steps=200)
        assert loss(trained) < loss(w0)

    def test_oversized_step_diverges(self):
        rng = RngStream(15)
        ds = make_dataset(8, 16, 0.0, rng)
        lr = 10.0 * 2.0 / max_hessian_eigenvalue(ds.X)
        with pytest.raises(DivergenceError):
            train_least_squares(ds.X, ds.y, rng.normal(8), steps=50, lr=lr)

    def test_non_finite_loss_diverges(self):
        # an lr large enough to overflow the loss is divergence, found at the
        # first non-finite loss without numpy warnings on the way
        rng = RngStream(15)
        ds = make_dataset(8, 4, 0.0, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lr, steps in ((1e300, 5), (1e160, 50)):
                with pytest.raises(DivergenceError, match="not finite at step"):
                    train_least_squares(ds.X, ds.y, np.ones(8), steps=steps, lr=lr)

    @pytest.mark.parametrize("steps", [100, 2000, 37])
    @pytest.mark.parametrize("d, n", [(64, 16), (32, 32), (6, 40)])
    def test_matches_weight_space_descent(self, d, n, steps):
        # n <= d steps on the Gram matrix, n > d in weight space; 37 steps
        # end part-way through a block of Gram steps
        rng = RngStream(18)
        ds = make_dataset(d, n, 0.1, rng)
        w0 = rng.normal(d) / math.sqrt(d)
        lr = 0.9 * 2.0 / max_hessian_eigenvalue(ds.X)
        np.testing.assert_allclose(
            train_least_squares(ds.X, ds.y, w0, steps, lr),
            _weight_space_gd(ds.X, ds.y, w0, steps, lr),
            rtol=1e-12,
        )

    def test_more_examples_than_weights_builds_no_gram_matrix(self):
        # an n x n matrix here would take 128 MiB
        rng = RngStream(19)
        ds = make_dataset(4, 4096, 0.1, rng)
        w0 = rng.normal(4)
        tracemalloc.start()
        try:
            train_least_squares(ds.X, ds.y, w0, steps=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_fits_on_one_matrix_share_its_gram_matrix(self):
        # n <= d; the n x n Gram matrix takes n^2 * 8 = 32 KiB
        d, n = 512, 64
        rng = RngStream(22)
        ds = make_dataset(d, n, 0.1, rng)
        w0 = rng.normal(d) / math.sqrt(d)
        lr = 0.9 * 2.0 / max_hessian_eigenvalue(ds.X)
        first = train_least_squares(ds.X, ds.y, w0, steps=100, lr=lr)
        tracemalloc.start()
        try:
            second = train_least_squares(ds.X, ds.y, w0, steps=100, lr=lr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        fresh = DataMatrix(ds.X.values.copy())
        np.testing.assert_array_equal(second, first)
        np.testing.assert_array_equal(
            second, train_least_squares(fresh, ds.y, w0, steps=100, lr=lr)
        )

    def test_oversized_step_diverges_on_gram_path(self):
        # n <= d: the rising loss is seen on the Gram-matrix residual
        rng = RngStream(20)
        ds = make_dataset(16, 8, 0.0, rng)
        lr = 10.0 * 2.0 / max_hessian_eigenvalue(ds.X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="rose on consecutive steps"):
                train_least_squares(ds.X, ds.y, rng.normal(16), steps=50, lr=lr)

    def test_non_finite_loss_diverges_in_weight_space(self):
        # n > d: the overflow happens in the weights
        rng = RngStream(21)
        ds = make_dataset(4, 8, 0.0, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lr, steps in ((1e300, 5), (1e160, 50)):
                with pytest.raises(DivergenceError, match="not finite at step"):
                    train_least_squares(ds.X, ds.y, np.ones(4), steps=steps, lr=lr)

    def test_invalid_lr_rejected(self):
        rng = RngStream(16)
        ds = make_dataset(4, 8, 0.0, rng)
        for steps in (5, 0):
            for lr in (-0.1, math.inf, math.nan):
                with pytest.raises(ValueError, match="learning rate"):
                    train_least_squares(ds.X, ds.y, np.ones(4), steps=steps, lr=lr)

    def test_returns_read_only_array(self):
        rng = RngStream(17)
        ds = make_dataset(4, 8, 0.0, rng)
        w0 = rng.normal(4)
        for steps in (0, 5):
            w = train_least_squares(ds.X, ds.y, w0, steps=steps)
            assert isinstance(w, np.ndarray) and w.dtype == np.float64
            assert not w.flags.writeable


class TestMaskMethods:
    def test_pipeline_methods(self):
        assert METHODS == (
            "sketch-p0", "sketch-uniform", "topk-synflow", "randomized-synflow",
            "randomized-snip-sparse",
        )

    @pytest.mark.parametrize("name", list(MASK_METHODS))
    def test_mask_kind_budget_and_bound(self, name):
        method = MASK_METHODS[name]
        rng = RngStream(4)
        X = gen_normal_X(20, 8, rng)
        w0 = rng.normal(20)
        w_star = rng.normal(20)
        # a binary method builds its mask; a sketch method gives the
        # distribution its masks are drawn from
        if method.binary:
            assert method.distribution is None
            mask = method.build(row_norms(X), X.n, w0, 5, rng.substream(1))
            assert mask.kind == "binary" and mask.nnz == 5
        else:
            assert method.build is None
            p = method.distribution(row_norms(X), w0)
            assert isinstance(p, ProbabilityVector) and p.d == 20
            mask = sample_sketch_mask(p, 5, rng.substream(1))
            assert mask.kind == "sketch" and 1 <= mask.nnz <= 5
        bound = method.bound(w0, w_star, 5) if method.bound else math.nan
        assert math.isfinite(bound) == (not method.binary)


class TestSparseSnipProbe:
    @pytest.mark.parametrize("d, n", [
        (4096, 256), (64, 16), (10, 6), (1000, 3), (5, 40), (1, 1), (65536, 128),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mask_and_stream_match_the_dense_probe(self, d, n, seed):
        w = RngStream(seed).substream(0).normal(d)
        s = -(-d // 10)
        rng, twin = RngStream(seed, 1), RngStream(seed, 1)
        # only the length of the norms is read
        mask = experiments._snip_sparse_mask(np.ones(d), n, w, s, rng)
        probe = gen_sparse_X(d, n, twin)
        want = select_randomized(snip_scores_l1(probe, np.zeros(n), w), s, twin)
        np.testing.assert_array_equal(mask.values, want.values)
        assert rng.uniform() == twin.uniform()


class TestExpectedSketchError:
    @pytest.mark.parametrize("method", ["sketch-p0", "sketch-uniform"])
    def test_matches_fresh_masks_on_fresh_test_data(self, method):
        state = seed_state(8, 4, seed=11)
        X = state.dataset.X
        w_star = train_least_squares(
            X, state.dataset.y, state.w0, state.steps, state.lr
        )
        p = MASK_METHODS[method].distribution(row_norms(X), state.w0)
        rng = RngStream(12)
        errors = np.array([
            approximation_error(
                gen_normal_X(8, 4, rng), w_star, sample_sketch_mask(p, 3, rng)
            ) ** 2
            for _ in range(20_000)
        ])
        se = errors.std(ddof=1) / math.sqrt(errors.size)
        cell = run_prune_pipeline(state, method, 3)
        assert abs(cell.masked_error - errors.mean()) < 4.0 * se

    def test_uniform_is_lemma4_times_one_less_one_over_d(self):
        for seed in range(5):
            state = seed_state(16, 8, seed)
            cell = run_prune_pipeline(state, "sketch-uniform", 4)
            w_star = train_least_squares(
                state.dataset.X, state.dataset.y, state.w0, state.steps, state.lr
            )
            want = 15 / 16 * lemma4_uniform_bound(w_star, 4)
            assert cell.masked_error == pytest.approx(want, rel=1e-12, abs=0)

    def test_tuned_never_exceeds_theorem1(self):
        # d=64, n=32 at seeds 0-19; the pipeline defaults (s=8, seeds 0-9)
        # are part of this grid
        for seed in range(20):
            state = seed_state(64, 32, seed)
            w_star = train_least_squares(
                state.dataset.X, state.dataset.y, state.w0, state.steps, state.lr
            )
            for s in (4, 8, 16, 32):
                cell = run_prune_pipeline(state, "sketch-p0", s)
                assert cell.bound == theorem1_bound(state.w0, w_star, s)
                assert 0.0 < cell.masked_error <= cell.bound

    def test_trained_weight_off_the_support_raises(self):
        # training moves the weight that w0 holds at an exact zero, where the
        # tuned distribution puts no mass
        state = seed_state(8, 4, seed=0)
        w0 = state.w0.copy()
        w0[2] = 0.0
        state = dataclasses.replace(state, w0=as_vector(w0))
        assert optimal_probabilities(state.dataset.X, state.w0).values[2] == 0.0
        with pytest.raises(SupportError, match="active trained weight"):
            run_prune_pipeline(state, "sketch-p0", 3)


class TestRunPrunePipeline:
    def test_deterministic(self):
        assert _run("sketch-p0", seed=5) == _run("sketch-p0", seed=5)

    def test_methods_share_everything_but_the_mask(self):
        results = [_run(m, seed=9) for m in METHODS]
        distances = {r.w0_wstar_distance for r in results}
        assert len(distances) == 1

    def test_bound_kinds(self):
        tuned = _run("sketch-p0", seed=1)
        uniform = _run("sketch-uniform", seed=1)
        binary = _run("topk-synflow", seed=1)
        assert math.isfinite(tuned.bound) and tuned.bound > 0
        assert math.isfinite(uniform.bound) and uniform.bound > 0
        assert math.isnan(binary.bound)

    def test_masked_error_nonnegative(self):
        for method in METHODS:
            r = _run(method, seed=2, d=12, n=8, s=3)
            assert r.masked_error >= 0.0

    def test_zero_steps_keeps_w0(self):
        r = _run("sketch-p0", seed=3, d=12, n=8, s=3, steps=0)
        assert r.w0_wstar_distance == 0.0

    def test_unknown_method(self):
        state = seed_state(8, 4, seed=0)
        for method in ("taylor", "uniform"):
            with pytest.raises(ValueError, match="unknown method"):
                run_prune_pipeline(state, method, 2)

    def test_budget_range(self):
        state = seed_state(8, 4, seed=0)
        for s in (0, 9):
            with pytest.raises(InvalidDensityError):
                run_prune_pipeline(state, "sketch-p0", s)


class TestSeedState:
    @pytest.mark.parametrize("name, value", [
        ("d", 0), ("n", 0), ("steps", -1), ("lr", 0.0), ("lr", -1.0),
        ("lr", math.inf), ("seed", -1), ("noise_std", -1.0),
    ])
    def test_invalid_settings_rejected(self, name, value):
        with pytest.raises(ValueError):
            seed_state(**{"d": 8, "n": 4, "seed": 0, name: value})

    def test_step_size_is_given_lr_or_the_training_default(self):
        state = seed_state(12, 8, seed=3)
        assert state.lr == 0.9 * 2.0 / max_hessian_eigenvalue(state.dataset.X)
        assert seed_state(12, 8, seed=3, lr=0.1).lr == 0.1

    def test_zero_steps_skips_power_iteration(self, monkeypatch):
        # with no training and no given step size no curvature is needed, so
        # a data matrix without any still builds a state
        monkeypatch.setattr(
            experiments, "gen_normal_X", lambda d, n, rng: DataMatrix(np.zeros((d, n)))
        )
        assert seed_state(6, 4, seed=0, steps=0).lr is None
        with pytest.raises(ValueError, match="no curvature"):
            seed_state(6, 4, seed=0)
