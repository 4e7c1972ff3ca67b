"""Closed-form expected errors, provable upper bounds, and the Monte Carlo
and enumeration estimators used to verify them.

Throughout, the error of a mask m for data X and weights w is the squared
Euclidean distance ||X^T w - X^T (w * m)||^2, and expectations are over the
s independent categorical draws that build the mask (and, where stated, over
fresh Gaussian data as well).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataMatrix,
    DegenerateDistributionError,
    EnumerationLimitError,
    ProbabilityVector,
    RngStream,
    SupportError,
    _blocks,
    _check_at_least,
    _check_budget,
    _check_length,
    _row_norms,
    _vector_of_length,
    as_vector,
    features,
    row_norms,
)
from .sketch import (
    _categorical_indices,
    _mask_rows,
    _optimal_probabilities,
    optimal_probabilities,
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
        _check_at_least(1, trials=self.trials)
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


def _sketch_operands(X: DataMatrix, w, p: ProbabilityVector, s: int) -> np.ndarray:
    """The weights w validated, once the budget s and the lengths of w and p
    are checked against the rows of X: the operands of an s-draw sketch."""
    _check_budget(s)
    wv = _vector_of_length(w, X.d, "weight", "matrix rows")
    _check_length(p.d, X.d, "distribution", "matrix rows")
    return wv


def _pair_operands(w0, w_star, s: int) -> tuple[np.ndarray, np.ndarray]:
    """w0 and w_star validated after the budget s, w_star's length against
    w0's: the operands of a mask tuned on w0 and applied to w_star."""
    _check_budget(s)
    w0v = as_vector(w0)
    return w0v, _vector_of_length(w_star, w0v.size, "w_star", "initial weights")


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
    wv = _sketch_operands(X, w, p, s)
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
        if np.any(uncovered & (_row_norms(Xs) > 0.0)):
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
    """Bound ||w0||_1^2 / s on the data-averaged exact error when masking w0
    with its own optimal distribution and X has iid N(0, 1/n) entries:
    theorem1_bound at w* = w0, valid for every w0.
    """
    return theorem1_bound(w0, w0, s)


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
    w0v, wsv = _pair_operands(w0, w_star, s)
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


# The sketch distributions, by mc_error_over_data's names: the probabilities
# from row norms, (d,) or (k, d), and w0, which the caller renormalizes once,
# and the bound (w0, w_star, s) on their masks' data-averaged error. Entries
# call through this module's globals, so rebinding a global reaches every call.
_SKETCHES = {
    "optimal": (lambda norms, w0: _optimal_probabilities(norms, w0),
                lambda w0, w_star, s: theorem1_bound(w0, w_star, s)),
    "uniform": (lambda norms, w0: np.full(norms.shape, 1.0 / norms.shape[-1]),
                lambda w0, w_star, s: lemma4_uniform_bound(w_star, s)),
}


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


def _init_beats_uniform(w0: np.ndarray, w_star: np.ndarray) -> bool:
    """Whether p = |w0| / ||w0||_1 gives w* a lower _expected_sketch_error
    than uniform p: with A = ||w0||_1 sum_k w*_k^2 / |w0_k| they are
    (A - ||w*||^2) / s and (d - 1) ||w*||^2 / s, so exactly when A < d ||w*||^2."""
    w0_abs = np.abs(w0)
    A = w0_abs.sum() * np.sum(w_star**2 / w0_abs)
    return bool(A < w_star.size * np.sum(w_star**2))


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
    reference value (the exact expectation, when the caller has one).

    Each trial applies to w_apply the mask `sample_sketch_mask(p, s, rng)`
    would draw. The trials are taken in blocks of at most
    core._BLOCK_ELEMENTS // max(d, s, n) (one trial when that is 0): one
    (k, s) uniform draw per block, made into k masks by sketch's bincount
    builder and applied to X by one matrix product. A block consumes the
    stream exactly as k calls of `sample_sketch_mask` do, so the draws are
    those of a trial-by-trial loop, and memory stays flat in trials.
    """
    _check_at_least(1, trials=trials)
    wv = _sketch_operands(X, w_apply, p, s)
    errors = _mask_errors(X, wv, p.values, s, trials, rng)
    return _summary(errors, reference, "equality")


def _standard_error(x: np.ndarray) -> float:
    """The standard error of the mean of x, by its sample deviation (ddof=1)."""
    return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


def _summary(errors: np.ndarray, reference: float, kind: str) -> BoundReport:
    """The mean of per-trial errors against reference, with its standard error."""
    se = _standard_error(errors)
    return BoundReport(float(errors.mean()), se, reference, kind, errors.size)


def _draw_weights(wv: np.ndarray, pv: np.ndarray, s: int) -> np.ndarray:
    """w_k / (s p_k), what a draw of index k adds to the weights; 0 where p_k = 0."""
    return np.divide(wv, s * pv, out=np.zeros(pv.size), where=pv > 0.0)


def _mask_errors(
    X: DataMatrix, wv: np.ndarray, pv: np.ndarray, s: int, trials: int, rng: RngStream
) -> np.ndarray:
    """The squared feature error of each of `trials` sketch masks, for
    operands already checked by mc_error_over_masks."""
    d = X.d
    step = _draw_weights(wv, pv, s)
    base = features(X, wv)
    errors = np.empty(trials)
    for block in _blocks(trials, max(d, s, X.n)):
        idx = _categorical_indices(pv, rng.uniform((block.stop - block.start, s)))
        residual = _mask_rows(idx, step[idx], d).reshape(-1, d) @ X.values
        np.subtract(base, residual, out=residual)
        errors[block] = np.einsum("ij,ij->i", residual, residual)
    return errors


def enumerate_exact_error(X: DataMatrix, w, p: ProbabilityVector, s: int) -> float:
    """Exact expected squared error by enumerating every ordered draw
    sequence, weighted by its probability.

    Independent of the closed forms above; cost grows as d^s, so sequences
    beyond the enumeration limit are refused. Sequences are taken in chunks
    of at most core._BLOCK_ELEMENTS // max(d, n), so memory is flat in both.
    Each draw of index k adds w_k / (s p_k) to the weights, as in
    mc_error_over_masks, through sketch's one mask builder.
    """
    wv = _sketch_operands(X, w, p, s)
    if X.d**s > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{X.d}^{s} ordered sequences exceed the limit of {ENUMERATION_LIMIT}"
        )
    pv = p.values
    step = _draw_weights(wv, pv, s)
    support = p.support()
    base = features(X, wv)
    # Sequence i draws support[digit j of i in base m] at draw j, most
    # significant first: the lexicographic order of itertools.product.
    m = support.size
    places = m ** np.arange(s - 1, -1, -1)
    total = 0.0
    for chunk in _blocks(m**s, max(X.d, X.n)):
        block = support[np.arange(chunk.start, chunk.stop)[:, None] // places % m]
        weights = pv[block].prod(axis=1)
        feats = _mask_rows(block, step[block], X.d).reshape(-1, X.d) @ X.values
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

    distribution names an entry of the sketch table: "optimal" tunes p on
    (X, w0) and reports against Theorem 1's bound, "uniform" samples
    uniformly against Lemma 4's; another name raises ValueError. An
    explicit reference overrides the entry's bound.

    The matrices are drawn in blocks of several trials, one (k, d, n) draw
    per block, with at most core._BLOCK_ELEMENTS entries in a block (one
    trial when a single matrix is larger). A block consumes the stream
    exactly as k draws of (d, n) do, so the draws are those of a
    trial-by-trial loop, and memory stays flat in x_trials.
    """
    _check_at_least(1, x_trials=x_trials, n=n)
    if distribution not in _SKETCHES:
        raise ValueError(f"unknown distribution {distribution!r}")
    probabilities, bound = _SKETCHES[distribution]
    w0v, wsv = _pair_operands(w0, w_star, s)
    d = w0v.size
    scale = 1.0 / math.sqrt(n)
    errors = np.empty(x_trials)
    for trials in _blocks(x_trials, d * n):
        Xs = rng.normal((trials.stop - trials.start, d, n))
        np.multiply(Xs, scale, out=Xs)
        ps = probabilities(_row_norms(Xs), w0v)
        # the renormalization ProbabilityVector applies to each one
        ps /= ps.sum(axis=1, keepdims=True)
        errors[trials] = _variance_form_errors(Xs, wsv, ps, s)
    reference = bound(w0v, wsv, s) if reference is None else reference
    return _summary(errors, reference, "upper-bound")
