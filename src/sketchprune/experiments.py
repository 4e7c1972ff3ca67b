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
    ProbabilityVector,
    RngStream,
    SupportError,
    as_vector,
    features,
    row_norms,
)
from .scores import select_randomized, select_topk, synflow_scores
from .sketch import _optimal_probabilities, uniform_probabilities

__all__ = [
    "MASK_METHODS",
    "METHODS",
    "MaskMethod",
    "SyntheticDataset",
    "PipelineResult",
    "SeedState",
    "gen_normal_X",
    "gen_chi_input",
    "gen_sparse_X",
    "make_dataset",
    "max_hessian_eigenvalue",
    "train_least_squares",
    "seed_state",
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
class PipelineResult:
    masked_error: float
    bound: float
    w0_wstar_distance: float


@dataclass(frozen=True)
class SeedState:
    """What every (method, budget) cell of one seed shares.

    The mask is found at initialization, so a seed's cells differ only in
    their mask: they train on the same data from the same w0 for the same
    number of steps with the same step size. A cell is scored in expectation
    over fresh test data, so no test matrix is held; the training matrix is
    the state's only d x n array. `lr` is None only when no step size was
    given and no training runs.
    """

    seed: int
    dataset: SyntheticDataset
    w0: np.ndarray
    steps: int
    lr: float | None


def gen_normal_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with iid N(0, 1/n) entries, so E||X_(k)||^2 = 1."""
    x = rng.normal((d, n))
    x /= math.sqrt(n)
    x.setflags(write=False)
    return DataMatrix(x)


# Entries of each block of rows that gen_chi_input draws (256 KiB of
# float64). Measured on the d=65536, n=128 draw (2-core Xeon, numpy 2.4,
# OpenBLAS), blocks of 2^14 to 2^18 entries took the same time within
# noise, and 2^15 the least in the median; peak memory grows with the
# block, by 12 MB at 2^20.
_CHI_BLOCK_ELEMENTS = 2**15


def gen_chi_input(d: int, rng: RngStream, n: int = 128) -> np.ndarray:
    """The row norms of gen_normal_X(d, n, rng), bit for bit, without the
    d x n matrix.

    Each entry is the norm of n iid N(0, 1/n) variables; entries concentrate
    near 1, tighter for larger n. The rows are drawn by gen_normal_X a block
    at a time, which consumes the stream exactly as one (d, n) draw does and
    reduces each row as the whole matrix would, so memory stays flat in d.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rows = max(1, _CHI_BLOCK_ELEMENTS // n)
    norms = np.empty(d)
    for start in range(0, d, rows):
        block = gen_normal_X(min(rows, d - start), n, rng)
        norms[start:start + block.d] = row_norms(block)
    return norms


def gen_sparse_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with exactly one N(0, 1) entry per row, at a uniformly
    random column."""
    cols = rng.integers(0, n, size=d)
    M = np.zeros((d, n))
    M[np.arange(d), cols] = rng.normal(d)
    M.setflags(write=False)
    return DataMatrix(M)


def make_dataset(d: int, n: int, noise_std: float, rng: RngStream) -> SyntheticDataset:
    """Draw X, a ground-truth w_true ~ N(0, I/d), and noisy labels."""
    _check_noise_std(noise_std)
    X = gen_normal_X(d, n, rng)
    w_true = rng.normal(d) / math.sqrt(d)
    # a noise level near the float64 limit overflows; that is reported
    # below, naming the level, in place of numpy's warning
    with np.errstate(over="ignore"):
        y = features(X, w_true) + noise_std * rng.normal(n)
    if not np.isfinite(y).all():
        raise ValueError(f"labels overflow at noise level {noise_std:g}")
    return SyntheticDataset(X, y, w_true, noise_std)


def max_hessian_eigenvalue(X: DataMatrix) -> float:
    """The top eigenvalue of the loss Hessian (2/n) X X^T, computed exactly.

    X X^T and the Gram matrix X^T X have the same nonzero eigenvalues, so
    the smaller of the two is decomposed: the Gram matrix that X caches (and
    training shares) when n <= d, and X X^T otherwise.
    """
    Xv = X.values
    top = float(np.linalg.eigvalsh(X._gram if X.n <= X.d else Xv @ Xv.T)[-1])
    if top <= 0.0:
        raise ValueError("data matrix has no curvature")
    return 2.0 * top / X.n


def _default_lr(X: DataMatrix) -> float:
    """0.9 times the stability threshold 2/lambda_max of the loss Hessian."""
    return 0.9 * 2.0 / max_hessian_eigenvalue(X)


# Steps that train_least_squares takes on the Gram matrix between two
# recomputations of the residual from the weights. Rounding in the residual
# recursion reaches the weights amplified by the conditioning of X, so it
# may build up for this many steps only.
_FOLD_STEPS = 25


def train_least_squares(
    X: DataMatrix, y, w0, steps: int, lr: float | None = None
) -> np.ndarray:
    """Gradient descent on the mean squared residual (1/n) ||X^T w - y||^2.

    Returns read-only weights; steps=0 returns w0 as a read-only vector.
    When lr is omitted it is set to 0.9 times the stability threshold
    2/lambda_max of the Hessian, with lambda_max from
    `max_hessian_eigenvalue`. A non-finite loss, or a loss that rises on
    two consecutive steps, raises DivergenceError.

    The step w <- w - c X r, with c = 2 lr / n, moves the residual
    r = X^T w - y by r <- r - c (X^T X) r. When n <= d the loop iterates
    the n entries of r over the n x n Gram matrix X^T X (no larger than X)
    at O(n^2) per step, summing the residuals it steps from; every
    _FOLD_STEPS steps, and at the last, the sum moves w by one matvec and r
    is recomputed from w. X forms its Gram matrix on first use and keeps
    it, so every fit on the same X shares one. When n > d a step in weight
    space costs no more, so every step is such a fold and no n x n matrix
    is built.
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
    if lr is None and steps > 0:
        lr = _default_lr(X)
    if lr is not None:
        _check_lr(lr)
    if steps == 0:
        return w0v
    Xv = X.values
    n = X.n
    c = lr * (2.0 / n)
    gram = X._gram if n <= X.d else None
    fold_steps = _FOLD_STEPS if gram is not None else 1
    w = w0v.copy()
    # an overflow shows as a non-finite loss, which is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = Xv.T @ w - yv
        total = np.zeros(n)
        prev = float(residual @ residual) / n
        tolerance = 1e-12 * max(1.0, prev)
        rises = 0
        for step in range(steps):
            if (step + 1) % fold_steps and step + 1 < steps:
                total += residual
                residual -= c * (gram @ residual)
            else:
                if gram is not None:
                    residual += total
                    total[:] = 0.0
                w -= c * (Xv @ residual)
                residual = Xv.T @ w - yv
            loss = float(residual @ residual) / n
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"loss is not finite at step {step + 1} (lr={lr:.6g})"
                )
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
    """One way to prune weights w at initialization from a d x n data matrix.

    A method sees the data only through its d row norms `norms` (see
    `row_norms`) and its example count n, so a caller that needs no matrix
    can pass norms drawn by `gen_chi_input`. A binary method has
    `build(norms, n, w, s, rng)`, which returns a mask keeping exactly s
    weights. A fractional sketch method has instead `distribution(norms, w)`,
    the ProbabilityVector that its s draws of `sample_sketch_mask` sample
    from, and `bound(w0, w_star, s)`, which caps the expected squared feature
    error of a mask tuned on w0 and applied to the trained weights w_star.
    The weights w have one entry per row.
    """

    name: str
    build: Callable[[np.ndarray, int, np.ndarray, int, RngStream], Mask] | None = None
    distribution: Callable[[np.ndarray, np.ndarray], ProbabilityVector] | None = None
    bound: Callable[[np.ndarray, np.ndarray, int], float] | None = None

    @property
    def binary(self) -> bool:
        return self.build is not None


def _snip_sparse_mask(norms: np.ndarray, n: int, w, s: int, rng: RngStream) -> Mask:
    """select_randomized over the SNIP scores, at zero labels, of a probe
    drawn from rng as gen_sparse_X(d, n, rng) draws it, d = norms.size. The
    data's norms are not read: the probe stands in for the data.

    Probe row j holds one value vals_j at column cols_j, so the probe's
    features are f = bincount(cols, vals * w) and snip_scores_l1 reduces to
    |w_j| |vals_j sign(f)[cols_j]| / n. Only the signs of f enter, and each
    other product has one nonzero term, so the mask is the one the dense
    d x n probe gives, in O(d + n) memory.
    """
    d = norms.size
    cols = rng.integers(0, n, size=d)
    vals = rng.normal(d)
    wv = as_vector(w)
    signs = np.sign(np.bincount(cols, weights=vals * wv, minlength=n))
    scores = np.abs(wv) * np.abs(vals * signs[cols]) / n
    return select_randomized(scores, s, rng)


def _expected_sketch_error(p: ProbabilityVector, w_star: np.ndarray, s: int) -> float:
    """(1/s) sum_k w*_k^2 (1 - p_k) / p_k, the squared feature error of w*
    under an s-draw sketch mask from p, in expectation over the mask and
    over test data with iid N(0, 1/n) entries.

    Given the mask m, the test data average ||X^T (w* (1 - m))||^2 to
    ||w* (1 - m)||^2, and the count of draws of k is Binomial(s, p_k), so
    E(1 - m_k)^2 = (1 - p_k) / (s p_k). Every term is nonnegative. An index
    with p_k = 0 but w*_k != 0 makes the estimator biased, and raises.
    """
    active = w_star != 0.0
    pa = p.values[active]
    if np.any(pa == 0.0):
        raise SupportError(
            "sampling distribution has zero mass on an active trained weight"
        )
    return float((w_star[active] ** 2 * (1.0 - pa) / pa).sum()) / s


# Entries reach library functions through this module's globals, never by
# holding them, so rebinding a module attribute (as tracing does) reaches
# every call.
MASK_METHODS = {
    m.name: m
    for m in (
        MaskMethod(
            "sketch-p0",
            distribution=lambda norms, w: _optimal_probabilities(norms, w),
            bound=lambda w0, w_star, s: theorem1_bound(w0, w_star, s),
        ),
        MaskMethod(
            "sketch-uniform",
            distribution=lambda norms, w: uniform_probabilities(norms.size),
            bound=lambda w0, w_star, s: lemma4_uniform_bound(w_star, s),
        ),
        MaskMethod(
            "topk-synflow",
            lambda norms, n, w, s, rng: select_topk(synflow_scores(norms, w), s),
        ),
        MaskMethod(
            "randomized-synflow",
            lambda norms, n, w, s, rng: select_randomized(
                synflow_scores(norms, w), s, rng
            ),
        ),
        MaskMethod("randomized-snip-sparse", _snip_sparse_mask),
        MaskMethod(
            "uniform",
            lambda norms, n, w, s, rng: select_randomized(np.ones(norms.size), s, rng),
        ),
    )
}
# The pipeline compares every method but the uniform binary baseline, which
# only the weight-magnitude histogram uses.
METHODS = tuple(name for name in MASK_METHODS if name != "uniform")


def seed_state(
    d: int,
    n: int,
    seed: int,
    noise_std: float = 0.0,
    steps: int = 100,
    lr: float | None = None,
) -> SeedState:
    """Draw the state shared by every cell of one seed.

    The seed is split into fixed substreams: 0 draws the data and 1 the
    initial weights w0 (2 is each binary cell's mask). The step size is lr,
    or the default of `train_least_squares` when training runs. No test
    matrix is drawn: cells are scored in expectation over test data.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lr is not None:
        _check_lr(lr)
    root = RngStream(seed)
    dataset = make_dataset(d, n, noise_std, root.substream(0))
    w0 = as_vector(root.substream(1).normal(d) / math.sqrt(d))
    if lr is None and steps > 0:
        lr = _default_lr(dataset.X)
    return SeedState(seed, dataset, w0, steps, lr)


def run_prune_pipeline(state: SeedState, method: str, s: int) -> PipelineResult:
    """Prune one (method, budget) cell of a seed at initialization, train,
    and score the squared masked-feature error of the trained weights w*,
    in expectation over test data with iid N(0, 1/n) entries.

    A binary cell draws its mask m from a fresh substream 2 of the seed and
    scores ||w* (1 - m)||^2. A sketch cell draws no mask: it scores the
    closed-form expectation over its masks as well, the same kind of
    quantity as its bound. The mask, or the sketch distribution, is found
    from the data and w0 before training. The data, w0 and step size come
    from `state`.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    X = state.dataset.X
    if not 1 <= s <= X.d:
        raise InvalidDensityError(f"keep count must lie in [1, {X.d}], got {s}")
    spec = MASK_METHODS[method]
    norms = row_norms(X)
    if spec.binary:
        mask = spec.build(norms, X.n, state.w0, s, RngStream(state.seed).substream(2))
    else:
        p = spec.distribution(norms, state.w0)
    w_star = train_least_squares(X, state.dataset.y, state.w0, state.steps, state.lr)
    if spec.binary:
        dropped = w_star * (1.0 - mask.values)
        masked_error = float(dropped @ dropped)
        bound = math.nan
    else:
        masked_error = _expected_sketch_error(p, w_star, s)
        bound = spec.bound(state.w0, w_star, s)
    distance = float(np.linalg.norm(w_star - state.w0))
    return PipelineResult(masked_error, bound, distance)
