import dataclasses
import math
import warnings

import numpy as np
import pytest

from sketchprune import (
    ACTIVATIONS,
    DataMatrix,
    DimensionMismatchError,
    DivergenceError,
    LinearTrajectory,
    RngStream,
    StepSizeError,
    TinyMLP,
    ZeroColumnError,
    analytic_jacobian,
    capital_F,
    empirical_ntk,
    enumerate_exact_error,
    finite_difference_jacobian,
    mask_probabilities,
    sample_sketch_mask,
    take_snapshot,
    theorem2_report,
    train_linearized_gd,
)


def small_problem(width=8, activation="tanh", seed=0, d_in=3, n=5, d_out=1):
    rng = RngStream(seed)
    X = DataMatrix(rng.normal((d_in, n)))
    y = rng.normal(n * d_out)
    model = TinyMLP.init(d_in, width, d_out, activation, rng)
    return model, X, y, rng


class TestTinyMLP:
    def test_parameter_count(self):
        model, *_ = small_problem(width=8, d_in=3, d_out=2)
        assert model.n_params == 8 * 3 + 2 * 8

    def test_output_shape_is_example_major(self):
        model, X, *_ = small_problem(width=4, d_in=3, n=5, d_out=2)
        assert model.output_vector(X).shape == (10,)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            TinyMLP.init(2, 4, 1, "relu", RngStream(0))

    def test_with_theta_replaces_parameters(self):
        model, X, *_ = small_problem()
        other = model.with_theta(np.zeros(model.n_params))
        np.testing.assert_array_equal(other.output_vector(X), 0.0)

    def test_rejects_wrong_length_theta(self):
        with pytest.raises(DimensionMismatchError):
            TinyMLP(2, 4, 1, "tanh", np.zeros(11))

    def test_rejects_non_finite_theta(self):
        theta = np.zeros(12)
        theta[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TinyMLP(2, 4, 1, "tanh", theta)

    @pytest.mark.parametrize("sizes, message", [
        ((0, 4, 1), "d_in must be >= 1, got 0"),
        ((-2, 4, 1), "d_in must be >= 1, got -2"),
        ((2, 0, 1), "width must be >= 1, got 0"),
        ((2, 4, -1), "d_out must be >= 1, got -1"),
        ((2, 1.5, 1), "width must be an integer, got 1.5"),
    ])
    def test_init_checks_sizes_before_drawing(self, sizes, message):
        refused, untouched = RngStream(3), RngStream(3)
        with pytest.raises(ValueError) as caught:
            TinyMLP.init(*sizes, "tanh", refused)
        assert str(caught.value) == message
        assert refused.normal() == untouched.normal()

    def test_activation_table(self):
        assert set(ACTIVATIONS) == {"tanh", "softplus", "linear"}
        act, _ = ACTIVATIONS["softplus"]
        assert act(np.array([0.0]))[0] == pytest.approx(math.log(2.0))


class TestJacobian:
    @pytest.mark.parametrize("activation", ["tanh", "softplus", "linear"])
    def test_matches_finite_differences(self, activation):
        model, X, *_ = small_problem(activation=activation, d_out=2)
        J = analytic_jacobian(model, X)
        J_fd = finite_difference_jacobian(model, X)
        assert np.abs(J - J_fd).max() / np.abs(J).max() < 1e-6

    def test_shape(self):
        model, X, *_ = small_problem(width=4, d_in=3, n=5, d_out=2)
        assert analytic_jacobian(model, X).shape == (10, model.n_params)

    def test_linear_network_euler_identity(self):
        # two-layer linear net output is degree-2 homogeneous in theta,
        # so J(theta) theta = 2 f(theta)
        model, X, *_ = small_problem(activation="linear")
        J = analytic_jacobian(model, X)
        np.testing.assert_allclose(J @ model.theta, 2.0 * model.output_vector(X), rtol=1e-10)


class TestSnapshot:
    def test_kernel_is_psd_and_symmetric(self):
        model, X, y, _ = small_problem(width=16)
        snap = take_snapshot(model, X, y)
        np.testing.assert_allclose(snap.empirical_ntk, snap.empirical_ntk.T, rtol=1e-12)
        assert snap.lambda_min >= -1e-10
        assert snap.lambda_min <= snap.lambda_max

    def test_empirical_ntk_normalization(self):
        model, X, y, _ = small_problem(width=16)
        snap = take_snapshot(model, X, y)
        J = snap.jacobian
        np.testing.assert_allclose(snap.empirical_ntk, empirical_ntk(J, 16), rtol=1e-12)

    def test_k_hat_is_frobenius_norm(self):
        model, X, y, _ = small_problem()
        snap = take_snapshot(model, X, y)
        assert snap.k_hat == pytest.approx(np.linalg.norm(snap.jacobian))

    def test_r0_hat_is_residual_norm(self):
        model, X, y, _ = small_problem()
        snap = take_snapshot(model, X, y)
        assert snap.r0_hat == pytest.approx(np.linalg.norm(model.output_vector(X) - y))

    def test_refuses_a_kernel_that_is_not_psd(self, monkeypatch):
        from sketchprune import ntk

        model, X, y, _ = small_problem()
        monkeypatch.setattr(ntk, "empirical_ntk", lambda J, width: -np.eye(J.shape[0]))
        with pytest.raises(ValueError) as caught:
            take_snapshot(model, X, y)
        assert str(caught.value) == "empirical kernel is not PSD (min eig -1)"


class TestCapitalF:
    def test_identity(self):
        assert capital_F(np.eye(2)) == pytest.approx(2.0)

    def test_scaled_identity(self):
        assert capital_F(2.0 * np.eye(3)) == pytest.approx(1.5)

    def test_vector(self):
        assert capital_F([2.0, 4.0]) == pytest.approx(0.75)

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError):
            capital_F(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("A", [
        [math.nan, 1.0], [math.inf, 1.0], [[1.0, 2.0], [-math.inf, 1.0]],
    ])
    def test_non_finite_rejected(self, A):
        # an inf column would otherwise add 1/inf = 0, dropping out unseen
        with pytest.raises(ValueError) as caught:
            capital_F(A)
        assert str(caught.value) == "capital_F entries must be finite"

    def test_three_d_rejected(self):
        with pytest.raises(DimensionMismatchError, match="ndim=3"):
            capital_F(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("A", [[], np.zeros((2, 0))])
    def test_empty_rejected(self, A):
        with pytest.raises(DimensionMismatchError) as caught:
            capital_F(A)
        assert str(caught.value) == "capital_F must not be empty"


class TestMaskFromSnapshot:
    def test_probabilities_sum_to_one(self):
        model, X, y, _ = small_problem()
        p = mask_probabilities(take_snapshot(model, X, y))
        assert p.values.sum() == pytest.approx(1.0)
        assert p.d == model.n_params

    def test_mask_respects_budget(self):
        model, X, y, rng = small_problem()
        m = sample_sketch_mask(mask_probabilities(take_snapshot(model, X, y)), 4, rng)
        assert m.kind == "sketch"
        assert m.nnz <= 4


class TestTrainLinearizedGd:
    def test_loss_never_increases(self):
        model, X, y, _ = small_problem(width=32)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=80)
        assert (np.diff(traj.losses) <= 1e-10).all()
        assert traj.losses[-1] < traj.losses[0]

    def test_critical_step_size_is_allowed(self):
        model, X, y, _ = small_problem(width=32)
        snap = take_snapshot(model, X, y)
        eta0 = 2.0 / (snap.lambda_min + snap.lambda_max)
        traj = train_linearized_gd(snap, y, eta0=eta0, steps=30)
        assert traj.losses[-1] <= traj.losses[0]

    def test_rejects_step_beyond_critical(self):
        model, X, y, _ = small_problem(width=32)
        snap = take_snapshot(model, X, y)
        eta0 = 2.2 / (snap.lambda_min + snap.lambda_max)
        with pytest.raises(StepSizeError):
            train_linearized_gd(snap, y, eta0=eta0, steps=10)
        with pytest.raises(StepSizeError):
            train_linearized_gd(snap, y, eta0=0.0, steps=10)
        with pytest.raises(StepSizeError):
            train_linearized_gd(snap, y, eta0=float("nan"), steps=10)

    def test_rising_loss_is_a_divergence(self):
        # a spectrum a tenth of the true one admits ten times the critical
        # step, at which the loss rises at once
        model, X, y, _ = small_problem(width=32)
        true = take_snapshot(model, X, y)
        snap = dataclasses.replace(
            true, lambda_min=true.lambda_min / 10, lambda_max=true.lambda_max / 10
        )
        eta0 = 2.0 / (snap.lambda_min + snap.lambda_max)
        with pytest.raises(DivergenceError) as caught:
            train_linearized_gd(snap, y, eta0=eta0, steps=10)
        assert str(caught.value) == (
            f"linearized loss rose at step 1 despite eta0={eta0:.6g}"
        )

    def test_zero_steps(self):
        model, X, y, _ = small_problem()
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=0)
        np.testing.assert_array_equal(traj.theta_final, snap.theta0)
        assert traj.movement.tolist() == [0.0]

    def test_first_checkpoint_is_theta0(self):
        model, X, y, _ = small_problem()
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=40)
        assert traj.checkpoint_steps[0] == 0
        np.testing.assert_array_equal(traj.thetas[0], snap.theta0)
        assert traj.checkpoint_steps[-1] == 40


class TestTheorem2Report:
    def test_bound_holds_after_training(self):
        model, X, y, rng = small_problem(width=24, n=6)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=60)
        rep = theorem2_report(model, snap, traj, X, s=8, mask_trials=60, rng=rng)
        assert rep.kind == "upper-bound"
        assert rep.satisfied()

    def test_zero_steps_matches_enumeration(self):
        model, X, y, rng = small_problem(width=4, d_in=2, n=4)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=0)
        rep = theorem2_report(model, snap, traj, X, s=2, mask_trials=4_000, rng=rng)
        exact = enumerate_exact_error(
            DataMatrix(snap.jacobian.T), snap.theta0, mask_probabilities(snap), 2
        )
        assert abs(rep.empirical_error - exact) < 4.0 * rep.standard_error

    def test_trajectory_k_hat_at_least_initial(self):
        from sketchprune.ntk import _lipschitz_k_hat

        model, X, y, _ = small_problem(width=16)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=50)
        jacobians = [
            analytic_jacobian(model.with_theta(theta), X) for theta in traj.thetas
        ]
        assert _lipschitz_k_hat(snap, traj, jacobians) >= snap.k_hat

    def test_one_jacobian_per_checkpoint(self, monkeypatch):
        from sketchprune import ntk

        model, X, y, rng = small_problem(width=16)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=50)
        calls = []

        def counted(*args):
            calls.append(None)
            return analytic_jacobian(*args)

        monkeypatch.setattr(ntk, "analytic_jacobian", counted)
        theorem2_report(model, snap, traj, X, s=4, mask_trials=10, rng=rng)
        # the first checkpoint, theta0, reads the snapshot's
        assert len(calls) == len(traj.thetas) - 1

    def test_singular_kernel_is_refused_before_any_jacobian_or_mask(
        self, monkeypatch
    ):
        from sketchprune import ntk

        model, X, y, rng = small_problem(width=16)
        snap = take_snapshot(model, X, y)
        traj = train_linearized_gd(snap, y, eta0=1.0 / snap.lambda_max, steps=10)

        def never(*args, **kwargs):
            raise AssertionError("a Jacobian or a mask was computed")

        monkeypatch.setattr(ntk, "analytic_jacobian", never)
        monkeypatch.setattr(ntk, "mc_error_over_masks", never)
        for lambda_min in (0.0, -1e-12):
            singular = dataclasses.replace(snap, lambda_min=lambda_min)
            with pytest.raises(ValueError) as caught:
                theorem2_report(model, singular, traj, X, s=4, mask_trials=10, rng=rng)
            assert str(caught.value) == (
                "empirical kernel is singular; the bound is undefined"
            )

    def test_warns_beyond_the_kernel_regime(self):
        from sketchprune.ntk import _lipschitz_k_hat

        model, X, y, rng = small_problem(width=8)
        snap = take_snapshot(model, X, y)
        # two equal checkpoints: no Lipschitz ratio, so K stays at k_hat
        thetas = np.array([snap.theta0, snap.theta0])
        cap = 3.0 * snap.k_hat * snap.r0_hat / snap.lambda_min
        traj = LinearTrajectory(
            thetas=thetas,
            checkpoint_steps=np.array([0, 1]),
            movement=np.array([0.0, 2.0 * cap]),
            losses=np.array([1.0, 1.0]),
        )
        jacobians = [snap.jacobian, snap.jacobian]
        assert _lipschitz_k_hat(snap, traj, jacobians) == snap.k_hat
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            theorem2_report(model, snap, traj, X, s=4, mask_trials=10, rng=rng)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "beyond the kernel-regime estimate" in str(caught[0].message)
