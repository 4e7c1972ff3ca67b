"""Synthetic data, least-squares training, and the end-to-end pruning
pipeline behind the command-line tools."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _SKETCHES, _expected_sketch_error
from .core import (
    DataMatrix,
    DivergenceError,
    Mask,
    ProbabilityVector,
    RngStream,
    _check_at_least,
    _check_budget,
    _frozen,
    _vector_of_length,
    as_vector,
    features,
    row_norms,
)
from .scores import select_randomized, select_topk, synflow_scores

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
        yv = _vector_of_length(self.y, self.X.n, "label", "examples")
        wv = _vector_of_length(self.w_true, self.X.d, "weight", "matrix rows")
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

    The mask is found at initialization, from the data and w0 alone, so a
    seed's cells differ only in their mask: each scores it against the same
    trained weights w_star, fitted once from w0. A cell is scored in
    expectation over fresh test data, so no test matrix is held; the
    training matrix is the state's only d x n array.
    """

    seed: int
    dataset: SyntheticDataset
    w0: np.ndarray
    w_star: np.ndarray


def gen_normal_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with iid N(0, 1/n) entries, so E||X_(k)||^2 = 1."""
    _check_at_least(1, d=d, n=n)
    x = rng.normal((d, n))
    x /= math.sqrt(n)
    return DataMatrix(_frozen(x))


# the columns of the data whose row norms gen_chi_input draws by default
_CHI_COLUMNS = 128


def gen_chi_input(d: int, rng: RngStream, n: int = _CHI_COLUMNS) -> np.ndarray:
    """d iid draws with the law of a row norm of gen_normal_X(d, n, rng),
    without the d x n matrix.

    The norm of n iid N(0, 1/n) variables has the law sqrt(chi^2_n / n), so
    each entry is one chi-square draw, at O(d) time and memory whatever n
    is; entries concentrate near 1, tighter for larger n. The norms are
    returned read-only, as `row_norms` returns them: copy them before
    writing.
    """
    _check_at_least(1, d=d, n=n)
    norms = rng.chisquare(n, d)
    norms /= n
    np.sqrt(norms, out=norms)
    return _frozen(norms)


def gen_sparse_X(d: int, n: int, rng: RngStream) -> DataMatrix:
    """Data matrix with exactly one N(0, 1) entry per row, at a uniformly
    random column."""
    _check_at_least(1, d=d, n=n)
    cols, vals = _sparse_entries(d, n, rng)
    M = np.zeros((d, n))
    M[np.arange(d), cols] = vals
    return DataMatrix(_frozen(M))


def _sparse_entries(d: int, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """The column and the N(0, 1) value of the one entry of each of d rows."""
    return rng.integers(0, n, size=d), rng.normal(d)


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
    yv = _vector_of_length(y, X.n, "label", "examples")
    w0v = _vector_of_length(w0, X.d, "weight", "matrix rows")
    _check_at_least(0, steps=steps)
    if lr is None and steps > 0:
        lr = 0.9 * 2.0 / max_hessian_eigenvalue(X)
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
        if not math.isfinite(prev):
            raise DivergenceError(f"loss is not finite at step 0 (lr={lr:.6g})")
        tolerance = 1e-12 * max(1.0, prev)
        rises = 0
        for step in range(steps):
            if (step + 1) % fold_steps and step + 1 < steps:
                total += residual
                residual -= c * (gram @ residual)
            else:
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
    return as_vector(_frozen(w))


@dataclass(frozen=True)
class MaskMethod:
    """One way to prune weights w at initialization from a d x n data matrix.

    A method sees the data only through its d row norms `norms` (see
    `row_norms`) and its example count n, so a caller that needs no matrix
    can pass norms drawn by `gen_chi_input`. A binary method has
    `build(norms, n, w, s, rng)`, which returns a mask keeping exactly s
    weights. A fractional sketch method has instead `sketch`, a distribution
    name of `mc_error_over_data`, whose entry in bounds' table gives the
    probabilities from (norms, w) that `sample_sketch_mask` draws from and
    the bound (w0, w_star, s) on the expected squared feature error of a
    mask tuned on w0 and applied to the trained weights w_star.
    """

    name: str
    build: Callable[[np.ndarray, int, np.ndarray, int, RngStream], Mask] | None = None
    sketch: str | None = None

    @property
    def binary(self) -> bool:
        return self.build is not None


def _snip_sparse_mask(norms: np.ndarray, n: int, w, s: int, rng: RngStream) -> Mask:
    """select_randomized over the SNIP scores, at zero labels, of a probe
    drawn from rng by _sparse_entries, as gen_sparse_X(d, n, rng) draws it,
    d = norms.size. The data's norms are not read: the probe stands in for
    the data.

    Probe row j holds one value vals_j at column cols_j, so the probe's
    features are f = bincount(cols, vals * w) and snip_scores_l1 reduces to
    |w_j| |vals_j sign(f)[cols_j]| / n. Only the signs of f enter, and each
    other product has one nonzero term, so the mask is the one the dense
    d x n probe gives, in O(d + n) memory.
    """
    cols, vals = _sparse_entries(norms.size, n, rng)
    wv = as_vector(w)
    signs = np.sign(np.bincount(cols, weights=vals * wv, minlength=n))
    # Built in the buffer of signs[cols], taking |w_j| |x| as |w_j x|, which
    # has the same bits; the probe is freed before select_randomized's keys.
    scores = signs[cols]
    scores *= vals
    del cols, vals
    scores *= wv
    np.abs(scores, out=scores)
    scores /= n
    return select_randomized(_frozen(scores), s, rng)


# Entries call library functions through this module's globals, so
# rebinding a module attribute (as tracing does) reaches every call.
MASK_METHODS = {
    m.name: m
    for m in (
        MaskMethod("sketch-p0", sketch="optimal"),
        MaskMethod("sketch-uniform", sketch="uniform"),
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
            lambda norms, n, w, s, rng: select_randomized(
                _frozen(np.ones(norms.size)), s, rng
            ),
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
    """Draw the state shared by every cell of one seed, and train it.

    The seed is split into fixed substreams: 0 draws the data and 1 the
    initial weights w0 (2 is each binary cell's mask). w_star is
    `train_least_squares(X, y, w0, steps, lr)`, with its default step size
    when lr is None. No test matrix is drawn: cells are scored in
    expectation over test data.
    """
    _check_at_least(0, steps=steps)
    if lr is not None:
        _check_lr(lr)
    root = RngStream(seed)
    dataset = make_dataset(d, n, noise_std, root.substream(0))
    w0 = as_vector(root.substream(1).normal(d) / math.sqrt(d))
    w_star = train_least_squares(dataset.X, dataset.y, w0, steps, lr)
    return SeedState(seed, dataset, w0, w_star)


def run_prune_pipeline(state: SeedState, method: str, s: int) -> PipelineResult:
    """Prune one (method, budget) cell of a seed at initialization and score
    the squared masked-feature error of the seed's trained weights w*, in
    expectation over test data with iid N(0, 1/n) entries.

    A binary cell draws its mask m from a fresh substream 2 of the seed and
    scores ||w* (1 - m)||^2. A sketch cell draws no mask: it scores the
    closed-form expectation over its masks as well, the same kind of
    quantity as its bound. The mask, or the sketch distribution, depends on
    the data and w0 only; w* is read from `state`, which trained it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    X = state.dataset.X
    _check_budget(s, X.d)
    spec = MASK_METHODS[method]
    norms = row_norms(X)
    w_star = state.w_star
    if spec.binary:
        mask = spec.build(norms, X.n, state.w0, s, RngStream(state.seed).substream(2))
        dropped = w_star * (1.0 - mask.values)
        masked_error = float(dropped @ dropped)
        bound = math.nan
    else:
        probabilities, bound_of = _SKETCHES[spec.sketch]
        p = ProbabilityVector(probabilities(norms, state.w0))
        masked_error = _expected_sketch_error(p, w_star, s)
        bound = bound_of(state.w0, w_star, s)
    distance = float(np.linalg.norm(w_star - state.w0))
    return PipelineResult(masked_error, bound, distance)
