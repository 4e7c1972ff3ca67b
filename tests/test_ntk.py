import math

import numpy as np
import pytest

from sketchprune import (
    ACTIVATIONS,
    DataMatrix,
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
        assert _lipschitz_k_hat(model, X, snap, traj) >= snap.k_hat
