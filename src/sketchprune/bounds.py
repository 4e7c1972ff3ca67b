"""Closed-form expected errors, provable upper bounds, and the Monte Carlo
and enumeration estimators used to verify them.

Throughout, the error of a mask m for data X and weights w is the squared
Euclidean distance ||X^T w - X^T (w * m)||^2, and expectations are over the
s independent categorical draws that build the mask (and, where stated, over
fresh Gaussian data as well).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataMatrix,
    DegenerateDistributionError,
    DimensionMismatchError,
    EnumerationLimitError,
    InvalidDensityError,
    ProbabilityVector,
    RngStream,
    SupportError,
    as_vector,
    features,
    row_norms,
)
from .sketch import (
    optimal_probabilities,
    sample_sketch_mask,
    uniform_probabilities,
)

__all__ = [
    "ENUMERATION_LIMIT",
    "BoundReport",
    "exact_expected_error",
    "lemma1_exact_error",
    "lemma2_bound",
    "lemma3_bound",
    "theorem1_bound",
    "lemma4_uniform_bound",
    "mc_error_over_masks",
    "enumerate_exact_error",
    "mc_error_over_data",
]

ENUMERATION_LIMIT = 1_000_000

_REPORT_KINDS = ("equality", "upper-bound")

# mc_error_over_data draws X in blocks of at most this many entries
# (256 KiB of float64; 16 trials at d=64, n=32).
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class BoundReport:
    """An empirical error estimate next to the closed form or bound it is
    checked against.

    kind="equality" means the reference is an exact expectation, so the check
    is a two-sided tolerance; kind="upper-bound" means the empirical value
    only has to stay below the reference.
    """

    empirical_error: float
    standard_error: float
    closed_form_or_bound: float
    kind: str
    trials: int

    def __post_init__(self):
        if self.kind not in _REPORT_KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not math.isfinite(self.empirical_error):
            raise ValueError("empirical error must be finite")
        if not (math.isfinite(self.standard_error) and self.standard_error >= 0):
            raise ValueError("standard error must be finite and nonnegative")

    def satisfied(self) -> bool:
        """Whether the empirical value is consistent with the reference,
        allowing 4 standard errors of Monte Carlo slack."""
        slack = 4.0 * self.standard_error
        if self.kind == "equality":
            return abs(self.empirical_error - self.closed_form_or_bound) <= slack
        return self.empirical_error <= self.closed_form_or_bound + slack


def _check_budget(s: int):
    if s < 1:
        raise InvalidDensityError(f"sketch budget must be >= 1, got {s}")


def exact_expected_error(X: DataMatrix, w, p: ProbabilityVector, s: int) -> float:
    """Expected squared feature error of an s-draw sketch mask under p.

    Summing the per-coordinate variances of the unbiased estimator gives
    (1/s) sum_k ||X_(k)||^2 w_k^2 / p_k - (1/s) ||X^T w||^2. That difference
    cancels when one term dominates, so the same quantity is evaluated in
    the nonnegative variance form (1/s) sum_k p_k ||X_(k) w_k / p_k - X^T w||^2.
    Indices with a zero row or zero weight contribute nothing regardless of
    p_k; an active index with zero probability makes the expectation
    infinite and raises.
    """
    _check_budget(s)
    wv = as_vector(w)
    if wv.size != X.d:
        raise DimensionMismatchError(
            f"weight length {wv.size} does not match {X.d} matrix rows"
        )
    if p.d != X.d:
        raise DimensionMismatchError(
            f"distribution length {p.d} does not match {X.d} matrix rows"
        )
    return float(_variance_form_errors(X.values[None], wv, p.values[None], s)[0])


def _variance_form_errors(
    Xs: np.ndarray, wv: np.ndarray, ps: np.ndarray, s: int
) -> np.ndarray:
    """Exact expected error (variance form) for each of k matrices at once.

    Xs is a (k, d, n) block of finite data matrices; ps holds one
    distribution per matrix, (k, d), or one shared by all, (1, d). Raises
    SupportError where a distribution misses an active weight on a nonzero
    row. Xs is left unchanged.
    """
    uncovered = (ps == 0.0) & (wv != 0.0)
    if uncovered.any():
        norms = np.sqrt(np.add.reduce(Xs * Xs, axis=2))
        if np.any(uncovered & (norms > 0.0)):
            raise SupportError(
                "sampling distribution has zero mass on an active weight"
            )
    scale = np.divide(wv, ps, out=np.zeros(ps.shape), where=ps > 0.0)
    feats = np.matmul(Xs.transpose(0, 2, 1), wv)
    residual = np.multiply(Xs, scale[:, :, None])
    np.subtract(residual, feats[:, None, :], out=residual)
    squared = np.einsum("kij,kij->ki", residual, residual)
    # A batched vector product, which sums as p @ squared does for one matrix.
    return (ps[:, None, :] @ squared[:, :, None])[:, 0, 0] / s


def lemma1_exact_error(X: DataMatrix, w0, s: int) -> float:
    """Exact expected squared error when the sampling distribution is the
    optimal one for (X, w0) and the mask is applied to w0 itself.

    The variance sum then collapses to
    (1/s) (sum_k ||X_(k)|| |w0_k|)^2 - (1/s) ||X^T w0||^2; it is evaluated
    by exact_expected_error in its nonnegative variance form.
    """
    return exact_expected_error(X, w0, optimal_probabilities(X, w0), s)


def lemma2_bound(w0, s: int) -> float:
    """Bound (1/s) ||w0||^2 on the data-averaged exact error when masking w0
    with its own optimal distribution and X has iid N(0, 1/n) entries."""
    _check_budget(s)
    wv = as_vector(w0)
    return float(wv @ wv) / s


def lemma3_bound(
    X: DataMatrix, X_tilde: DataMatrix, w0, w_star, s: int
) -> tuple[float, float]:
    """Exact error and its data-free bound for a mask tuned on (X_tilde, w0)
    but applied to w_star under X.

    Returns (exact, bound) with
    exact = (1/s) sum_k ||X_(k)||^2 w*_k^2 / p0_k - (1/s) ||X^T w*||^2 and
    bound = (1/s) sum_k ||X_(k)||^2 w*_k^2 / p0_k,
    where p0 is the optimal distribution of (X_tilde, w0), and the exact
    term comes from exact_expected_error. Indices where w* is active but
    p0_k = 0 raise, since both quantities are then infinite.
    """
    p0 = optimal_probabilities(X_tilde, w0)
    exact = exact_expected_error(X, w_star, p0, s)
    numerators = row_norms(X) ** 2 * as_vector(w_star) ** 2
    active = numerators > 0.0
    bound = float((numerators[active] / p0.values[active]).sum()) / s
    return exact, bound


def theorem1_bound(w0, w_star, s: int) -> float:
    """Data-averaged error bound for masks tuned on (X, w0) and applied to a
    trained w_star, for X with iid N(0, 1/n) entries:

    (1/s) ||w0||_1 (sum_k delta_k^2 / |w0_k| + 2 ||delta||_1 + ||w0||_1),
    with delta = w* - w0 and the sum over the k where w0_k != 0. An index
    with w0_k = 0 but delta_k != 0 is never sampled yet carries weight, so
    the error is infinite there and SupportError is raised.
    """
    _check_budget(s)
    w0v = as_vector(w0)
    wsv = as_vector(w_star)
    if w0v.size != wsv.size:
        raise DimensionMismatchError(
            f"weight lengths differ: {w0v.size} vs {wsv.size}"
        )
    w0_abs = np.abs(w0v)
    l1 = float(w0_abs.sum())
    if l1 <= 0.0:
        raise DegenerateDistributionError("initial weights are identically zero")
    delta = wsv - w0v
    active = w0_abs > 0.0
    if np.any(delta[~active] != 0.0):
        raise SupportError(
            "w_star differs from w0 where w0 is zero; the error is infinite"
        )
    spread = float((delta[active] ** 2 / w0_abs[active]).sum())
    return l1 * (spread + 2.0 * float(np.abs(delta).sum()) + l1) / s


def lemma4_uniform_bound(w_star, s: int) -> float:
    """Error bound (d/s) ||w*||^2 for uniformly sampled sketch masks over
    the d = len(w_star) weights."""
    _check_budget(s)
    wsv = as_vector(w_star)
    return wsv.size / s * float(wsv @ wsv)


def mc_error_over_masks(
    X: DataMatrix,
    w_apply,
    p: ProbabilityVector,
    s: int,
    trials: int,
    rng: RngStream,
    reference: float = math.nan,
) -> BoundReport:
    """Monte Carlo mean of the squared feature error over freshly sampled
    sketch masks, reported as an equality against a caller-supplied
    reference value (the exact expectation, when the caller has one)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    wv = as_vector(w_apply)
    base = features(X, wv)
    Xt = np.ascontiguousarray(X.values.T)
    errors = np.empty(trials)
    for t in range(trials):
        m = sample_sketch_mask(p, s, rng)
        diff = base - Xt @ (wv * m.values)
        errors[t] = diff @ diff
    se = float(errors.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return BoundReport(float(errors.mean()), se, reference, "equality", trials)


def enumerate_exact_error(X: DataMatrix, w, p: ProbabilityVector, s: int) -> float:
    """Exact expected squared error by enumerating every ordered draw
    sequence, weighted by its probability.

    Independent of the closed forms above; cost grows as d^s, so sequences
    beyond the enumeration limit are refused.
    """
    _check_budget(s)
    wv = as_vector(w)
    if p.d != X.d or wv.size != X.d:
        raise DimensionMismatchError(
            "matrix, weights, and distribution must share the dimension d"
        )
    if X.d**s > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{X.d}^{s} ordered sequences exceed the limit of {ENUMERATION_LIMIT}"
        )
    pv = p.values
    support = p.support()
    base = features(X, wv)
    total = 0.0
    sequences = itertools.product(support.tolist(), repeat=s)
    chunk_size = 16384
    while True:
        block = np.array(list(itertools.islice(sequences, chunk_size)))
        if block.size == 0:
            break
        block = block.reshape(-1, s)
        weights = pv[block].prod(axis=1)
        masks = np.zeros((block.shape[0], X.d))
        rows = np.repeat(np.arange(block.shape[0]), s)
        np.add.at(masks, (rows, block.ravel()), 1.0 / (s * pv[block.ravel()]))
        feats = (wv * masks) @ X.values
        residual = ((base - feats) ** 2).sum(axis=1)
        total += float(weights @ residual)
    return total


def mc_error_over_data(
    w0,
    w_star,
    s: int,
    n: int,
    x_trials: int,
    rng: RngStream,
    distribution: str = "optimal",
    reference: float | None = None,
) -> BoundReport:
    """Average, over fresh X with iid N(0, 1/n) entries, of the exact
    expected masked-feature error of w_star when the mask distribution is
    tuned on (X, w0).

    distribution="optimal" tunes p on (X, w0) and reports against the
    trained-weights bound; distribution="uniform" samples uniformly and
    reports against the dimension-scaled bound. An explicit reference
    overrides either default.

    The matrices are drawn in blocks of several trials, one (k, d, n) draw
    per block, with at most _BLOCK_ELEMENTS entries in a block (one trial
    when a single matrix is larger). A block consumes the stream exactly as
    k draws of (d, n) do, so the draws are those of a trial-by-trial loop,
    and memory stays flat in x_trials.
    """
    if x_trials < 1:
        raise ValueError(f"x_trials must be >= 1, got {x_trials}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if distribution not in ("optimal", "uniform"):
        raise ValueError(f"unknown distribution {distribution!r}")
    _check_budget(s)
    w0v = as_vector(w0)
    wsv = as_vector(w_star)
    if w0v.size != wsv.size:
        raise DimensionMismatchError(
            f"weight lengths differ: {w0v.size} vs {wsv.size}"
        )
    d = w0v.size
    scale = 1.0 / math.sqrt(n)
    uniform = uniform_probabilities(d).values[None]
    w0_abs = np.abs(w0v)
    per_block = max(1, _BLOCK_ELEMENTS // (d * n))
    errors = np.empty(x_trials)
    for start in range(0, x_trials, per_block):
        Xs = rng.normal((min(per_block, x_trials - start), d, n))
        np.multiply(Xs, scale, out=Xs)
        if not np.isfinite(Xs).all():
            raise ValueError("DataMatrix entries must be finite")
        if distribution == "optimal":
            # p of each matrix X in the block, as ProbabilityVector and
            # _optimal_probabilities(row_norms(X), w0) compute it.
            weights = np.sqrt(np.add.reduce(Xs * Xs, axis=2))
            np.multiply(weights, w0_abs, out=weights)
            total = weights.sum(axis=1, keepdims=True)
            if np.any(total <= 0.0):
                raise DegenerateDistributionError(
                    "every row-norm-times-weight product is zero"
                )
            ps = np.divide(weights, total, out=weights)
            ps /= ps.sum(axis=1, keepdims=True)
        else:
            ps = uniform
        errors[start : start + Xs.shape[0]] = _variance_form_errors(Xs, wsv, ps, s)
    if reference is None:
        if distribution == "optimal":
            reference = theorem1_bound(w0v, wsv, s)
        else:
            reference = lemma4_uniform_bound(wsv, s)
    se = float(errors.std(ddof=1) / math.sqrt(x_trials)) if x_trials > 1 else 0.0
    return BoundReport(float(errors.mean()), se, reference, "upper-bound", x_trials)
