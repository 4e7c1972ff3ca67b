import math

import numpy as np
import pytest

from sketchprune import (
    METHODS,
    DivergenceError,
    InvalidDensityError,
    PipelineConfig,
    RngStream,
    features,
    gen_chi_input,
    gen_normal_X,
    gen_sparse_X,
    make_dataset,
    max_hessian_eigenvalue,
    run_prune_pipeline,
    train_least_squares,
)
from sketchprune.experiments import MASK_METHODS


class TestGenNormalX:
    def test_shape(self):
        assert gen_normal_X(5, 3, RngStream(0)).values.shape == (5, 3)

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
    rng = RngStream(11)
    X = gen_normal_X(8, 20, rng)
    top = max(np.linalg.eigvalsh(2.0 * X.values @ X.values.T / X.n))
    assert max_hessian_eigenvalue(X) == pytest.approx(top, rel=1e-4)
    assert max_hessian_eigenvalue(X, iters=100) == pytest.approx(top, rel=1e-9)


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

    def test_invalid_lr_rejected(self):
        rng = RngStream(16)
        ds = make_dataset(4, 8, 0.0, rng)
        for lr in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="learning rate"):
                train_least_squares(ds.X, ds.y, np.ones(4), steps=5, lr=lr)

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
        mask = method.build(X, w0, 5, rng.substream(1))
        if method.binary:
            assert mask.kind == "binary" and mask.nnz == 5
        else:
            assert mask.kind == "sketch" and 1 <= mask.nnz <= 5
        bound = method.bound(w0, w_star, 5) if method.bound else math.nan
        assert math.isfinite(bound) == (not method.binary)


class TestPipelineConfig:
    def test_unknown_method(self):
        for method in ("taylor", "uniform"):
            with pytest.raises(ValueError):
                PipelineConfig(d=8, n=4, s=2, method=method, seed=0)

    def test_budget_range(self):
        with pytest.raises(InvalidDensityError):
            PipelineConfig(d=8, n=4, s=9, method="sketch-p0", seed=0)
        with pytest.raises(InvalidDensityError):
            PipelineConfig(d=8, n=4, s=0, method="sketch-p0", seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            PipelineConfig(d=8, n=4, s=2, method="sketch-p0", seed=-1)


class TestRunPrunePipeline:
    def test_deterministic(self):
        config = PipelineConfig(d=16, n=12, s=4, method="sketch-p0", seed=5)
        assert run_prune_pipeline(config) == run_prune_pipeline(config)

    def test_methods_share_everything_but_the_mask(self):
        results = [
            run_prune_pipeline(PipelineConfig(d=16, n=12, s=4, method=m, seed=9))
            for m in METHODS
        ]
        distances = {r.w0_wstar_distance for r in results}
        assert len(distances) == 1

    def test_density_reported(self):
        r = run_prune_pipeline(PipelineConfig(d=16, n=12, s=4, method="sketch-p0", seed=0))
        assert r.density == pytest.approx(0.25)

    def test_bound_kinds(self):
        tuned = run_prune_pipeline(
            PipelineConfig(d=16, n=12, s=4, method="sketch-p0", seed=1)
        )
        uniform = run_prune_pipeline(
            PipelineConfig(d=16, n=12, s=4, method="sketch-uniform", seed=1)
        )
        binary = run_prune_pipeline(
            PipelineConfig(d=16, n=12, s=4, method="topk-synflow", seed=1)
        )
        assert math.isfinite(tuned.bound) and tuned.bound > 0
        assert math.isfinite(uniform.bound) and uniform.bound > 0
        assert math.isnan(binary.bound)

    def test_masked_error_nonnegative(self):
        for method in METHODS:
            r = run_prune_pipeline(PipelineConfig(d=12, n=8, s=3, method=method, seed=2))
            assert r.masked_error >= 0.0

    def test_zero_steps_keeps_w0(self):
        r = run_prune_pipeline(
            PipelineConfig(d=12, n=8, s=3, method="sketch-p0", seed=3, steps=0)
        )
        assert r.w0_wstar_distance == 0.0
