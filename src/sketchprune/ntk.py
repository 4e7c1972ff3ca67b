"""Tiny dense networks, exact Jacobians, and the kernel-regime error bound
for sketch-masked linearized features.

Networks use kernel parameterization: every parameter starts N(0, 1) and
each layer scales its output by 1/sqrt(fan_in). The empirical kernel is the
width-normalized Gram matrix of the Jacobian, and linearized training scales
its parameter step by 1/width so that the kernel eigenvalues set the usual
2/(lambda_min + lambda_max) stability threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundReport, mc_error_over_masks
from .core import (
    DataMatrix,
    DivergenceError,
    ProbabilityVector,
    RngStream,
    StepSizeError,
    ZeroColumnError,
    _check_at_least,
    _check_length,
    _validated_array,
    _vector_of_length,
)
from .sketch import optimal_probabilities

__all__ = [
    "ACTIVATIONS",
    "TinyMLP",
    "NtkSnapshot",
    "LinearTrajectory",
    "analytic_jacobian",
    "finite_difference_jacobian",
    "capital_F",
    "empirical_ntk",
    "mask_probabilities",
    "take_snapshot",
    "train_linearized_gd",
    "theorem2_report",
]


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


ACTIVATIONS = {
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "softplus": (_softplus, _sigmoid),
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
}

# the most parameter vectors that train_linearized_gd keeps
_CHECKPOINTS = 5


def _param_count(d_in: int, width: int, d_out: int) -> int:
    """The entries of a TinyMLP's width x d_in and d_out x width matrices."""
    return d_in * width + width * d_out


@dataclass(frozen=True)
class TinyMLP:
    """One-hidden-layer dense network with a flat parameter vector.

    theta concatenates the input-to-hidden matrix (width x d_in, row major)
    and the hidden-to-output matrix (d_out x width, row major). Outputs are
    (1/sqrt(width)) V sigma((1/sqrt(d_in)) U x).
    """

    d_in: int
    width: int
    d_out: int
    activation: str
    theta: np.ndarray

    def __post_init__(self):
        _check_at_least(1, d_in=self.d_in, width=self.width, d_out=self.d_out)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        theta = _vector_of_length(self.theta, self.n_params, "theta", "parameters")
        object.__setattr__(self, "theta", theta)

    @property
    def n_params(self) -> int:
        return _param_count(self.d_in, self.width, self.d_out)

    @classmethod
    def init(
        cls, d_in: int, width: int, d_out: int, activation: str, rng: RngStream
    ) -> "TinyMLP":
        """Fresh network with N(0, 1) parameters."""
        _check_at_least(1, d_in=d_in, width=width, d_out=d_out)
        theta = rng.normal(_param_count(d_in, width, d_out))
        return cls(d_in, width, d_out, activation, theta)

    def with_theta(self, theta) -> "TinyMLP":
        return TinyMLP(self.d_in, self.width, self.d_out, self.activation, theta)

    def _hidden(self, X: DataMatrix) -> tuple[np.ndarray, np.ndarray]:
        """The output matrix V and the hidden pre-activations
        (1/sqrt(d_in)) U X, for X with one row per input."""
        _check_length(X.d, self.d_in, "input", "network inputs")
        split = self.d_in * self.width
        U = self.theta[:split].reshape(self.width, self.d_in)
        V = self.theta[split:].reshape(self.d_out, self.width)
        return V, U @ X.values / math.sqrt(self.d_in)

    def output_vector(self, X: DataMatrix) -> np.ndarray:
        """Network outputs for every example column, flattened example-major
        (all outputs of example 0, then example 1, ...)."""
        V, Z = self._hidden(X)
        act, _ = ACTIVATIONS[self.activation]
        out = V @ act(Z) / math.sqrt(self.width)
        return out.T.ravel()


def analytic_jacobian(model: TinyMLP, X: DataMatrix) -> np.ndarray:
    """Exact Jacobian of the flattened outputs with respect to theta.

    Shape (n_examples * d_out, n_params); row order matches output_vector,
    column order matches the flat theta layout.
    """
    V, Z = model._hidden(X)
    act, act_prime = ACTIVATIONS[model.activation]
    sq_in = math.sqrt(model.d_in)
    sq_w = math.sqrt(model.width)
    S = act(Z)
    D = act_prime(Z)
    n = X.n
    JU = np.einsum("oh,hb,ib->bohi", V, D, X.values) / (sq_in * sq_w)
    JV = np.zeros((n, model.d_out, model.d_out, model.width))
    for o in range(model.d_out):
        JV[:, o, o, :] = S.T / sq_w
    rows = n * model.d_out
    return np.concatenate(
        [JU.reshape(rows, model.width * model.d_in), JV.reshape(rows, -1)], axis=1
    )


def finite_difference_jacobian(model: TinyMLP, X: DataMatrix) -> np.ndarray:
    """Central finite-difference Jacobian with step 1e-5, for checking the
    analytic one."""
    step = 1e-5
    theta = model.theta
    columns = []
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        plus = model.with_theta(theta + bump).output_vector(X)
        minus = model.with_theta(theta - bump).output_vector(X)
        columns.append((plus - minus) / (2.0 * step))
    return np.stack(columns, axis=1)


def capital_F(A) -> float:
    """Sum of reciprocal column norms of a matrix (entry magnitudes for a
    vector). Any zero column raises, since its reciprocal is undefined."""
    arr = _validated_array(A, "capital_F", ndim=1 if np.ndim(A) == 1 else 2)
    norms = np.abs(arr) if arr.ndim == 1 else np.linalg.norm(arr, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumnError("zero column makes the reciprocal-norm sum undefined")
    return float((1.0 / norms).sum())


@dataclass(frozen=True)
class NtkSnapshot:
    """Initialization-time quantities of a network on fixed data.

    empirical_ntk is (1/width) J J^T where J is the Jacobian at theta0;
    k_hat is the Frobenius norm of that Jacobian (the smoothness surrogate
    before any trajectory information); r0_hat the initial residual norm.
    """

    jacobian: np.ndarray
    theta0: np.ndarray
    outputs0: np.ndarray
    empirical_ntk: np.ndarray
    lambda_min: float
    lambda_max: float
    k_hat: float
    r0_hat: float
    width: int


def empirical_ntk(J: np.ndarray, width: int) -> np.ndarray:
    """Width-normalized kernel matrix (1/width) J J^T."""
    _check_at_least(1, width=width)
    return J @ J.T / width


def take_snapshot(model: TinyMLP, X: DataMatrix, y) -> NtkSnapshot:
    """Evaluate the Jacobian, kernel spectrum, and residual at theta0."""
    yv = _vector_of_length(y, X.n * model.d_out, "label", "outputs")
    J = analytic_jacobian(model, X)
    ntk = empirical_ntk(J, model.width)
    eigenvalues = np.linalg.eigvalsh(ntk)
    if eigenvalues[0] < -1e-10:
        raise ValueError(f"empirical kernel is not PSD (min eig {eigenvalues[0]:g})")
    f0 = model.output_vector(X)
    return NtkSnapshot(
        jacobian=J,
        theta0=model.theta,
        outputs0=f0,
        empirical_ntk=ntk,
        lambda_min=float(eigenvalues[0]),
        lambda_max=float(eigenvalues[-1]),
        k_hat=float(np.linalg.norm(J)),
        r0_hat=float(np.linalg.norm(f0 - yv)),
        width=model.width,
    )


def mask_probabilities(snapshot: NtkSnapshot) -> ProbabilityVector:
    """Sampling distribution proportional to Jacobian column norm times
    parameter magnitude, evaluated at initialization."""
    return optimal_probabilities(
        DataMatrix(snapshot.jacobian.T), snapshot.theta0
    )


@dataclass(frozen=True)
class LinearTrajectory:
    """Checkpointed parameters and per-step diagnostics of linearized GD."""

    thetas: np.ndarray
    checkpoint_steps: np.ndarray
    movement: np.ndarray
    losses: np.ndarray

    @property
    def theta_final(self) -> np.ndarray:
        return self.thetas[-1]


def train_linearized_gd(
    snapshot: NtkSnapshot,
    y,
    eta0: float,
    steps: int,
) -> LinearTrajectory:
    """Gradient descent on the squared loss of the model linearized at
    theta0, with the parameter step scaled by eta0/width. Parameters are kept
    at up to _CHECKPOINTS evenly spaced steps, the first and the last among them.

    With that scaling the residual contracts by (I - eta0 * empirical_ntk)
    each step, so eta0 may not exceed 2/(lambda_min + lambda_max). The loss
    is checked to be non-increasing along the way.
    """
    J = snapshot.jacobian
    yv = _vector_of_length(y, J.shape[0], "label", "outputs")
    _check_at_least(0, steps=steps)
    critical = 2.0 / (snapshot.lambda_min + snapshot.lambda_max)
    if not 0 < eta0 <= critical * (1.0 + 1e-12):
        raise StepSizeError(f"eta0 must lie in (0, {critical:.6g}], got {eta0}")
    scale = eta0 / snapshot.width
    theta0 = snapshot.theta0
    theta = theta0.copy()
    residual = snapshot.outputs0 - yv
    losses = np.empty(steps + 1)
    movement = np.empty(steps + 1)
    losses[0] = residual @ residual
    movement[0] = 0.0
    tolerance = 1e-12 * max(1.0, losses[0])
    # sorted(set(...)), not np.unique, whose first call imports numpy.ma
    checkpoint_set = set(
        np.linspace(0, steps, num=min(_CHECKPOINTS, steps + 1)).astype(int).tolist()
    )
    checkpoint_steps = np.array(sorted(checkpoint_set))
    kept = [theta.copy()]  # np.linspace starts every checkpoint set at step 0
    for t in range(1, steps + 1):
        theta -= scale * (J.T @ residual)
        residual = snapshot.outputs0 + J @ (theta - theta0) - yv
        losses[t] = residual @ residual
        movement[t] = np.linalg.norm(theta - theta0)
        if losses[t] > losses[t - 1] + tolerance:
            raise DivergenceError(
                f"linearized loss rose at step {t} despite eta0={eta0:.6g}"
            )
        if t in checkpoint_set:
            kept.append(theta.copy())
    return LinearTrajectory(np.array(kept), checkpoint_steps, movement, losses)


def _lipschitz_k_hat(
    snapshot: NtkSnapshot, trajectory: LinearTrajectory, jacobians: list[np.ndarray]
) -> float:
    """Raise the smoothness surrogate to cover finite-difference Jacobian
    Lipschitz ratios along the realized trajectory, given the Jacobian at
    each of its checkpoints."""
    k_hat = snapshot.k_hat
    count = len(jacobians)
    for a in range(count):
        for b in range(a + 1, count):
            gap = np.linalg.norm(trajectory.thetas[a] - trajectory.thetas[b])
            if gap == 0.0:
                continue
            ratio = np.linalg.norm(jacobians[a] - jacobians[b]) / gap
            k_hat = max(k_hat, float(ratio))
    return k_hat


def theorem2_report(
    model: TinyMLP,
    snapshot: NtkSnapshot,
    trajectory: LinearTrajectory,
    X: DataMatrix,
    s: int,
    mask_trials: int,
    rng: RngStream,
) -> BoundReport:
    """Masked linearized-feature error at the end of training against the
    kernel-regime bound.

    The empirical side averages ||J_t theta_t - J_t (theta_t * m)||^2 over
    sketch masks drawn from the initialization distribution, with the
    Jacobian at the final parameters. The Jacobian is computed once at each
    checkpoint after the first, theta0, whose Jacobian is the snapshot's;
    the last one serves the empirical side, and all of them the smoothness
    surrogate K. The bound side is
    (1/s) K^3 ||theta0||_1 F(J(theta0)) (||theta0||_1
        + F(theta0) 9 K^4 R0^2 / lambda_min^2
        + 6 sqrt(n_params) K^3 R0 / lambda_min),
    with every constant replaced by its empirical surrogate. A singular
    kernel (lambda_min <= 0) is refused before any Jacobian or mask draw.
    """
    _check_at_least(1, mask_trials=mask_trials)
    lambda_min = snapshot.lambda_min
    if lambda_min <= 0.0:
        raise ValueError("empirical kernel is singular; the bound is undefined")
    # checkpoint 0 is theta0, whose Jacobian the snapshot holds
    jacobians = [snapshot.jacobian] + [
        analytic_jacobian(model.with_theta(theta), X) for theta in trajectory.thetas[1:]
    ]
    # p0 first, so its copy of J0^T is gone before J_final^T is copied
    p0 = mask_probabilities(snapshot)
    masked = mc_error_over_masks(
        DataMatrix(jacobians[-1].T), trajectory.theta_final, p0, s, mask_trials, rng
    )

    k_hat = _lipschitz_k_hat(snapshot, trajectory, jacobians)
    l1 = float(np.abs(snapshot.theta0).sum())
    r0 = snapshot.r0_hat
    f_jacobian = capital_F(snapshot.jacobian)
    f_theta = capital_F(snapshot.theta0)
    n_params = snapshot.theta0.size
    bound = k_hat**3 * l1 * f_jacobian * (
        l1
        + f_theta * 9.0 * k_hat**4 * r0**2 / lambda_min**2
        + 6.0 * math.sqrt(n_params) * k_hat**3 * r0 / lambda_min
    ) / s

    movement_cap = 3.0 * k_hat * r0 / lambda_min
    max_movement = float(trajectory.movement.max())
    if max_movement > movement_cap:
        warnings.warn(
            f"trajectory moved {max_movement:.6g}, beyond the kernel-regime "
            f"estimate {movement_cap:.6g}; the bound may not apply",
            RuntimeWarning,
            stacklevel=2,
        )

    return replace(masked, closed_form_or_bound=float(bound), kind="upper-bound")
