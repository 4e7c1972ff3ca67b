"""Synthetic data, least-squares training, and the end-to-end pruning
pipeline behind the command-line tools."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import lemma4_uniform_bound, theorem1_bound
from .core import (
    DataMatrix,
    DimensionMismatchError,
    DivergenceError,
    InvalidDensityError,
    Mask,
    RngStream,
    as_vector,
    features,
    row_norms,
)
from .scores import select_randomized, select_topk, snip_scores_l1, synflow_scores
from .sketch import (
    approximation_error,
    optimal_probabilities,
    sample_sketch_mask,
    uniform_probabilities,
)

__all__ = [
    "MASK_METHODS",
    "METHODS",
    "MaskMethod",
    "SyntheticDataset",
    "PipelineConfig",
    "PipelineResult",
    "gen_normal_X",
    "gen_chi_input",
    "gen_sparse_X",
    "make_dataset",
    "max_hessian_eigenvalue",
    "train_least_squares",
    "run_prune_pipeline",
]


def _check_noise_std(noise_std: float):
    if not 0 <= noise_std < math.inf:
        raise ValueError(
            f"noise level must be finite and nonnegative, got {noise_std}"
        )


def _check_lr(lr: float):
    if not 0 < lr < math.inf:
        raise ValueError(f"learning rate must be finite and positive, got {lr}")


@dataclass(frozen=True)
class SyntheticDataset:
    """A regression instance with labels y = X^T w_true + noise."""

    X: DataMatrix
    y: np.ndarray
    w_true: np.ndarray
    noise_std: float

    def __post_init__(self):
        _check_noise_std(self.noise_std)
        yv = as_vector(self.y)
        wv = as_vector(self.w_true)
        if yv.size != self.X.n:
            raise DimensionMismatchError(
                f"label length {yv.size} does not match {self.X.n} examples"
            )
        if wv.size != self.X.d:
            raise DimensionMismatchError(
                f"weight length {wv.size} does not match {self.X.d} rows"
            )
        object.__setattr__(self, "y", yv)
        object.__setattr__(self, "w_true", wv)


@dataclass(frozen=True)
class PipelineConfig:
    """One pruning-pipeline cell: data sizes, mask method, and training."""

    d: int
    n: int
    s: int
    method: str
    seed: int
    noise_std: float = 0.0
    steps: int = 100
    lr: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.d < 1 or self.n < 1:
            raise ValueError("d and n must be positive")
        if not 1 <= self.s <= self.d:
            raise InvalidDensityError(
                f"keep count must lie in [1, {self.d}], got {self.s}"
            )
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        _check_noise_std(self.noise_std)
        if self.lr is not None:
            _check_lr(self.lr)


@dataclass(frozen=True)
class PipelineResult:
    method: str
    density: float
    masked_error: float
    bound: float
    w0_wstar_distance: float


def gen_normal_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with iid N(0, 1/n) entries, so E||X_(k)||^2 = 1."""
    return DataMatrix(rng.normal((d, n)) / math.sqrt(n))


def gen_chi_input(d: int, rng: RngStream, n: int = 128) -> np.ndarray:
    """Probe vector distributed like the row norms of gen_normal_X.

    Each entry is the norm of n iid N(0, 1/n) variables; entries concentrate
    near 1, tighter for larger n.
    """
    return np.linalg.norm(rng.normal((d, n)), axis=1) / math.sqrt(n)


def gen_sparse_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with exactly one N(0, 1) entry per row, at a uniformly
    random column."""
    cols = rng.integers(0, n, size=d)
    M = np.zeros((d, n))
    M[np.arange(d), cols] = rng.normal(d)
    return DataMatrix(M)


def make_dataset(d: int, n: int, noise_std: float, rng: RngStream) -> SyntheticDataset:
    """Draw X, a ground-truth w_true ~ N(0, I/d), and noisy labels."""
    _check_noise_std(noise_std)
    X = gen_normal_X(d, n, rng)
    w_true = rng.normal(d) / math.sqrt(d)
    y = features(X, w_true) + noise_std * rng.normal(n)
    return SyntheticDataset(X, y, w_true, noise_std)


def max_hessian_eigenvalue(X: DataMatrix, iters: int = 20) -> float:
    """Power-iteration estimate of the top eigenvalue of the loss Hessian
    (2/n) X X^T, from a deterministic all-ones start."""
    v = np.ones(X.d) / math.sqrt(X.d)
    Xv = X.values
    for _ in range(iters):
        v = Xv @ (Xv.T @ v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("data matrix has no curvature")
        v /= norm
    return 2.0 * float(v @ (Xv @ (Xv.T @ v))) / X.n


def train_least_squares(
    X: DataMatrix, y, w0, steps: int, lr: float | None = None
) -> np.ndarray:
    """Gradient descent on the mean squared residual (1/n) ||X^T w - y||^2.

    Returns read-only weights; steps=0 returns a copy of w0. When lr is
    omitted it is set to 0.9 times the stability threshold 2/lambda_max of
    the Hessian, with lambda_max estimated by 20 power-iteration steps. Two
    consecutive loss increases raise DivergenceError, and non-finite trained
    weights raise ValueError.
    """
    yv = as_vector(y)
    w0v = as_vector(w0)
    if yv.size != X.n or w0v.size != X.d:
        raise DimensionMismatchError(
            f"shapes ({X.d}, {X.n}) incompatible with weights {w0v.size} "
            f"and labels {yv.size}"
        )
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return w0v
    if lr is None:
        lr = 0.9 * 2.0 / max_hessian_eigenvalue(X)
    _check_lr(lr)
    Xv = X.values
    n = X.n
    w = w0v.copy()
    residual = Xv.T @ w - yv
    prev = float(residual @ residual) / n
    tolerance = 1e-12 * max(1.0, prev)
    rises = 0
    for step in range(steps):
        w -= lr * (2.0 / n) * (Xv @ residual)
        residual = Xv.T @ w - yv
        loss = float(residual @ residual) / n
        if loss > prev + tolerance:
            rises += 1
            if rises >= 2:
                raise DivergenceError(
                    f"loss rose on consecutive steps ending at {step + 1} "
                    f"(lr={lr:.6g})"
                )
        else:
            rises = 0
        prev = loss
    return as_vector(w)


@dataclass(frozen=True)
class MaskMethod:
    """One way to build a pruning mask from data X and weights w.

    `build(X, w, s, rng)` returns a mask with at most s nonzeros; a binary
    method keeps exactly s weights. `bound(w0, w_star, s)`, set only for the
    fractional sketch methods, caps the expected squared feature error of a
    mask tuned on w0 and applied to the trained weights w_star.
    """

    name: str
    build: Callable[[DataMatrix, np.ndarray, int, RngStream], Mask]
    binary: bool
    bound: Callable[[np.ndarray, np.ndarray, int], float] | None = None


def _snip_sparse_mask(X: DataMatrix, w, s: int, rng: RngStream) -> Mask:
    X_tilde = gen_sparse_X(X.d, X.n, rng)
    return select_randomized(snip_scores_l1(X_tilde, np.zeros(X.n), w), s, rng)


# Entries reach library functions through this module's globals, never by
# holding them, so rebinding a module attribute (as tracing does) reaches
# every call.
MASK_METHODS = {
    m.name: m
    for m in (
        MaskMethod(
            "sketch-p0",
            lambda X, w, s, rng: sample_sketch_mask(
                optimal_probabilities(X, w), s, rng
            ),
            binary=False,
            bound=lambda w0, w_star, s: theorem1_bound(w0, w_star, s),
        ),
        MaskMethod(
            "sketch-uniform",
            lambda X, w, s, rng: sample_sketch_mask(uniform_probabilities(X.d), s, rng),
            binary=False,
            bound=lambda w0, w_star, s: lemma4_uniform_bound(w_star, s),
        ),
        MaskMethod(
            "topk-synflow",
            lambda X, w, s, rng: select_topk(synflow_scores(row_norms(X), w), s),
            binary=True,
        ),
        MaskMethod(
            "randomized-synflow",
            lambda X, w, s, rng: select_randomized(
                synflow_scores(row_norms(X), w), s, rng
            ),
            binary=True,
        ),
        MaskMethod(
            "randomized-snip-sparse",
            _snip_sparse_mask,
            binary=True,
        ),
        MaskMethod(
            "uniform",
            lambda X, w, s, rng: select_randomized(np.ones(X.d), s, rng),
            binary=True,
        ),
    )
}
# The pipeline compares every method but the uniform binary baseline, which
# only the weight-magnitude histogram uses.
METHODS = tuple(name for name in MASK_METHODS if name != "uniform")


def run_prune_pipeline(config: PipelineConfig) -> PipelineResult:
    """Draw data, prune at initialization, train, and measure the squared
    masked-feature error on fresh test data.

    The seed is split into fixed substreams for data, initialization, mask
    sampling, and test data, so runs with different methods but the same seed
    share everything except the mask.
    """
    root = RngStream(config.seed)
    data_rng, init_rng, mask_rng, test_rng = (root.substream(k) for k in range(4))

    dataset = make_dataset(config.d, config.n, config.noise_std, data_rng)
    w0 = init_rng.normal(config.d) / math.sqrt(config.d)
    method = MASK_METHODS[config.method]
    mask = method.build(dataset.X, w0, config.s, mask_rng)
    w_star = train_least_squares(
        dataset.X, dataset.y, w0, config.steps, config.lr
    )
    X_test = gen_normal_X(config.d, config.n, test_rng)
    masked_error = approximation_error(X_test, w_star, mask) ** 2

    bound = method.bound(w0, w_star, config.s) if method.bound else math.nan
    distance = float(np.linalg.norm(w_star - w0))
    return PipelineResult(
        method=config.method,
        density=config.s / config.d,
        masked_error=masked_error,
        bound=bound,
        w0_wstar_distance=distance,
    )
