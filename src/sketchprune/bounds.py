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
from itertools import chain

import numpy as np

from .core import (
    DataMatrix,
    EnumerationLimitError,
    ProbabilityVector,
    RngStream,
    SupportError,
    _blocks,
    _check_at_least,
    _check_budget,
    _check_length,
    _normalized,
    _vector_of_length,
    as_vector,
    row_norms,
)
from .sketch import (
    _categorical_indices, _optimal_probabilities, optimal_probabilities,
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
            return bool(abs(self.empirical_error - self.closed_form_or_bound) <= slack)
        return bool(self.empirical_error <= self.closed_form_or_bound + slack)


def _check_support(p: np.ndarray, w: np.ndarray, rows=1.0) -> None:
    """Raise SupportError where p_k = 0 but w_k != 0 on a nonzero row (p, w
    and rows broadcast): an index carrying error that the sketch never
    draws, so its estimator is biased and its expected error infinite."""
    if np.any((p == 0.0) & (w != 0.0) & (rows > 0.0)):
        raise SupportError("sampling distribution has zero mass on an active weight")


def _over_support(x, q: np.ndarray) -> np.ndarray:
    """x / q where q > 0 and 0 elsewhere (x and q broadcast): every division
    by the sketch's p, whose draws never leave p's support."""
    return np.divide(x, q, out=np.zeros(q.shape), where=q > 0.0)


def _sketch_operands(
    X: DataMatrix, w, p: ProbabilityVector, s: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operands of an s-draw sketch, once the budget s and the lengths
    of w and p are checked against the rows of X: (wv, pv, base), the
    validated weights, p's values and the features base = X^T wv."""
    _check_budget(s)
    wv = _vector_of_length(w, X.d, "weight", "matrix rows")
    _check_length(p.d, X.d, "distribution", "matrix rows")
    return wv, p.values, X.values.T @ wv


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
    wv, pv, base = _sketch_operands(X, w, p, s)
    _check_support(pv, wv, row_norms(X))
    residual = X.values * _over_support(wv, pv)[:, None]
    np.subtract(residual, base, out=residual)
    return float(pv @ np.einsum("ij,ij->i", residual, residual)) / s


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
    bound = float(_over_support(numerators, p0.values).sum()) / s
    return exact, bound


def theorem1_bound(w0, w_star, s: int) -> float:
    """Data-averaged error bound for masks tuned on (X, w0) and applied to a
    trained w_star, for X with iid N(0, 1/n) entries:

    (1/s) ||w0||_1 (sum_k delta_k^2 / |w0_k| + 2 ||delta||_1 + ||w0||_1),
    with delta = w* - w0 and the sum over the k where w0_k != 0. Where
    w0_k = 0 but delta_k != 0 the error is infinite, and SupportError is raised.
    """
    w0v, wsv = _pair_operands(w0, w_star, s)
    w0_abs = np.abs(w0v)
    _normalized(w0_abs)  # raises where w0 has no mass
    l1 = float(w0_abs.sum())
    delta = wsv - w0v
    _check_support(w0_abs, delta)
    spread = float(_over_support(delta**2, w0_abs).sum())
    return l1 * (spread + 2.0 * float(np.abs(delta).sum()) + l1) / s


def lemma4_uniform_bound(w_star, s: int) -> float:
    """Error bound (d/s) ||w*||^2 for uniformly sampled sketch masks over
    the d = len(w_star) weights."""
    _check_budget(s)
    wsv = as_vector(w_star)
    return wsv.size / s * float(wsv @ wsv)


# The sketch distributions, by mc_error_over_data's names: the normalized
# probabilities from row norms, (d,) or (k, d), and w0, which _frame_errors
# reads as given (ProbabilityVector divides by the sum once more), and the
# bound (w0, w_star, s) on their masks' data-averaged error. The bound lambdas
# exist only to call the public bounds through this module's globals, so that
# rebinding one here reaches the table.
_SKETCHES = {
    "optimal": (_optimal_probabilities,
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
    _check_support(p.values, w_star)
    return float(_over_support(w_star**2 * (1.0 - p.values), p.values).sum()) / s


def _init_beats_uniform(w0: np.ndarray, w_star: np.ndarray) -> bool:
    """Whether p = |w0| / ||w0||_1 gives w* a lower _expected_sketch_error
    than uniform p; both scale as 1/s, so the budget is 1. A zero w0 raises,
    as in theorem1_bound."""
    init = _expected_sketch_error(ProbabilityVector(_normalized(np.abs(w0))), w_star, 1)
    return init < _expected_sketch_error(uniform_probabilities(w_star.size), w_star, 1)


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
    core._BLOCK_ELEMENTS // (s n) (one trial when that is 0): one (k, s)
    uniform draw per block, scored by _sequence_errors. A block consumes the
    stream exactly as k calls of `sample_sketch_mask` do, so the draws are
    those of a trial-by-trial loop, and memory stays flat in d and in trials.
    """
    _check_at_least(1, trials=trials)
    wv, pv, base = _sketch_operands(X, w_apply, p, s)
    step = _over_support(wv, s * pv)
    errors = np.empty(trials)
    for block in _blocks(trials, s * X.n):
        idx = _categorical_indices(pv, rng.uniform((block.stop - block.start, s)))
        errors[block] = _sequence_errors(X, base, step, idx)
    return _summary(errors, reference, "equality")


def _mean_and_standard_error(x: np.ndarray) -> tuple[float, float]:
    """The mean of x and its standard error by the sample deviation (ddof=1).

    Both are taken on x divided in place by 2^e, with 2^(e-1) <= max |x| <
    2^e (np.frexp), and multiplied back by 2^e, so the squared deviations
    neither overflow nor underflow where x does not; then x is multiplied
    back too. A power of two scales exactly, so where no scaled entry is
    subnormal, x is restored and every bit is that of an unscaled pass."""
    e = int(np.frexp(max(x.max(), -x.min()))[1])
    np.ldexp(x, -e, out=x)
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    np.ldexp(x, e, out=x)
    return float(np.ldexp(mean, e)), float(np.ldexp(se, e))


def _summary(errors: np.ndarray, reference: float, kind: str) -> BoundReport:
    """The mean of per-trial errors against reference, with its standard error."""
    mean, se = _mean_and_standard_error(errors)
    return BoundReport(mean, se, reference, kind, errors.size)


def _sequence_errors(
    X: DataMatrix, base: np.ndarray, step: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """||base - X^T m_i||^2 for the mask m_i of row i of the (k, s) draw
    indices idx, a draw of k adding step[k]: X^T m_i is the sum of the s
    drawn rows of X, each scaled by its step, in draw order (no BLAS call,
    so a row's bits do not depend on k). A block holds (k, s) indices and
    steps, their (k, s, n) rows and (k, n) features: s n a draw sequence."""
    residual = np.einsum("ij,ijk->ik", step[idx], X.values[idx])
    np.subtract(base, residual, out=residual)
    return np.einsum("ij,ij->i", residual, residual)


def enumerate_exact_error(X: DataMatrix, w, p: ProbabilityVector, s: int) -> float:
    """Exact expected squared error by enumerating every ordered draw
    sequence, weighted by its probability.

    Independent of the closed forms above. Only the m indices p can draw
    are enumerated, so the cost grows as m^s, and more sequences than the
    enumeration limit are refused. Sequences are taken in chunks of at most
    core._BLOCK_ELEMENTS // (s n), so memory is flat in d, m and s, and
    scored by mc_error_over_masks' kernel, _sequence_errors. The weighted
    errors are summed by math.fsum, a chunk at a time: the correctly rounded
    sum, whatever the chunks.
    """
    wv, pv, base = _sketch_operands(X, w, p, s)
    support = p.support()
    m = support.size
    if m**s > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{m}^{s} ordered sequences over the {m} indices p can draw "
            f"exceed the limit of {ENUMERATION_LIMIT}"
        )
    step = _over_support(wv, s * pv)
    # Sequence i draws support[digit j of i in base m] at draw j, most
    # significant first: the lexicographic order of itertools.product.
    places = m ** np.arange(s - 1, -1, -1)

    def weighted_errors():
        for chunk in _blocks(m**s, s * X.n):
            idx = support[np.arange(chunk.start, chunk.stop)[:, None] // places % m]
            yield (pv[idx].prod(axis=1) * _sequence_errors(X, base, step, idx)).tolist()

    return math.fsum(chain.from_iterable(weighted_errors()))


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

    A trial's exact error depends on X only through its row norms r_k and
    ||X^T w*||, so no matrix is drawn. Row k is drawn in the frame of the
    running sum S_(k-1) = sum_(l<k) w*_l X_(l): its component along S_(k-1)
    is a_k ~ N(0, 1/n), and its orthogonal remainder has squared norm
    b_k^2 ~ chi^2_(n-1) / n (b = 0 when n = 1). By rotation invariance,
    r_k = hypot(a_k, b_k) and t_k = ||S_k|| = hypot(t_(k-1) + w*_k a_k,
    w*_k b_k) have the law the d x n matrix gives. See _frame_errors for
    the error's nonnegative form.

    Once the arguments are checked, one integer in [0, 2^63) is drawn from
    rng to seed a child stream, RngStream(key). Then, in trial order, rng
    gives each trial's d standard normals (the a_k) and, when n > 1, the
    child its d chi-squares with n - 1 degrees of freedom (the n b_k^2): d
    normals and d chi-squares a trial, in place of the d n normals of a
    drawn matrix. Memory stays flat in x_trials.
    """
    _check_at_least(1, x_trials=x_trials, n=n)
    if distribution not in _SKETCHES:
        raise ValueError(f"unknown distribution {distribution!r}")
    probabilities, bound = _SKETCHES[distribution]
    w0v, wsv = _pair_operands(w0, w_star, s)
    d = w0v.size
    remainders = RngStream(int(rng.integers(0, 2**63)))
    errors = np.empty(x_trials)
    # a block holds about six (k, d) arrays at once, so its peak stays near
    # one and a half blocks of entries
    for trials in _blocks(x_trials, 4 * d):
        shape = (trials.stop - trials.start, d)
        a = rng.normal(shape)
        a *= 1.0 / math.sqrt(n)
        b2 = remainders.chisquare(n - 1, shape) if n > 1 else np.zeros(shape)
        b2 /= n
        errors[trials] = _frame_errors(a, b2, w0v, wsv, probabilities) / s
    reference = bound(w0v, wsv, s) if reference is None else reference
    return _summary(errors, reference, "upper-bound")


def _frame_errors(
    a: np.ndarray, b2: np.ndarray, w0v: np.ndarray, wsv: np.ndarray, probabilities
) -> np.ndarray:
    """s times the exact expected error of each of k trials, from the (k, d)
    frame components a and squared remainders b2 of mc_error_over_data,
    which it overwrites.

    With c_k = |w*_k| r_k and C = sum_k c_k, the error sum_k c_k^2 / p_k -
    t_d^2 is evaluated as sum_(p_k > 0) p_k (c_k / p_k - C)^2 +
    (C - t_d)(C + t_d), every term nonnegative. C - t_d is the sum of
    g_k = c_k + t_(k-1) - t_k = 2 t_(k-1) |w*_k| (r_k - sigma_k a_k) /
    (t_(k-1) + c_k + t_k), sigma_k = sign(w*_k), where r_k - sigma_k a_k is
    taken as b_k^2 / (r_k + sigma_k a_k) when sigma_k a_k > 0, so no step
    subtracts nearly equal numbers. Raises SupportError where p misses an
    active weight on a nonzero row.
    """
    r = a * a
    r += b2
    np.sqrt(r, out=r)
    w_abs = np.abs(wsv)
    c = w_abs * r
    total = c.sum(axis=1)
    ps = probabilities(r, w0v)
    _check_support(ps, wsv, r)
    ratio = _over_support(c, ps)
    ratio -= total[:, None]
    spread = np.einsum("ij,ij,ij->i", ps, ratio, ratio)
    del ps, ratio
    # 2 |w*_k| (r_k - sigma_k a_k): r_k + |a_k|, or b_k^2 over that where
    # sigma_k a_k > 0, that is where w*_k a_k > 0
    lift = np.abs(a)
    lift += r
    del r
    along = np.multiply(a, wsv, out=a)
    np.divide(b2, lift, out=lift, where=along > 0.0)
    lift *= 2.0 * w_abs
    across = np.sqrt(b2, out=b2)
    across *= wsv
    # t[:, k] is t_k; a zero weight leaves t where it was, as hypot(t, 0) = t
    trials, d = a.shape
    t = np.zeros((trials, d + 1))
    for j in range(d):
        np.add(t[:, j], along[:, j], out=t[:, j + 1])
        np.hypot(t[:, j + 1], across[:, j], out=t[:, j + 1])
    width = t[:, :-1] + c
    width += t[:, 1:]
    # width is 0 only where t_(k-1) is, and so is the step
    step = np.multiply(t[:, :-1], lift, out=lift)
    np.divide(step, width, out=step, where=width > 0.0)
    return spread + step.sum(axis=1) * (total + t[:, -1])
