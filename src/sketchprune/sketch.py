"""Importance-sampled sketch masks for linear feature maps.

A sketch mask is built from s independent categorical draws, adding
1/(s p_i) at every drawn index. For any sampling distribution whose support
covers the active weights, X^T (w * m) is then an unbiased estimator of the
feature vector X^T w; the distribution proportional to ||X_(i)|| |w_i|
minimizes its expected squared error.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DataMatrix,
    DegenerateDistributionError,
    DimensionMismatchError,
    InvalidDensityError,
    Mask,
    ProbabilityVector,
    RngStream,
    as_vector,
    features,
    row_norms,
)

__all__ = [
    "optimal_probabilities",
    "uniform_probabilities",
    "sample_sketch_mask",
    "approximation_error",
]


def optimal_probabilities(X: DataMatrix, w) -> ProbabilityVector:
    """Sampling distribution proportional to row norm times weight magnitude.

    p_i = ||X_(i)|| |w_i| / sum_j ||X_(j)|| |w_j|. Among all distributions
    this one minimizes the expected squared error of the sketched feature
    vector, by Cauchy-Schwarz on the per-index variance terms.
    """
    wv = as_vector(w)
    if wv.size != X.d:
        raise DimensionMismatchError(
            f"weight length {wv.size} does not match {X.d} matrix rows"
        )
    return _optimal_probabilities(row_norms(X), wv)


def _optimal_probabilities(norms: np.ndarray, wv: np.ndarray) -> ProbabilityVector:
    """optimal_probabilities from the row norms of X, for weights already
    validated to their length."""
    weights = norms * np.abs(wv)
    total = float(weights.sum())
    if total <= 0.0:
        raise DegenerateDistributionError(
            "every row-norm-times-weight product is zero"
        )
    return ProbabilityVector(weights / total)


def uniform_probabilities(d: int) -> ProbabilityVector:
    """The uniform distribution over d indices."""
    if d < 1:
        raise InvalidDensityError(f"dimension must be >= 1, got {d}")
    return ProbabilityVector(np.full(d, 1.0 / d))


def _categorical_indices(p: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup of uniform draws against the cumulative bins of p.

    A draw that lands exactly on a bin boundary resolves to the lower index.
    Zero-width bins (zero-probability indices) are unreachable except through
    exact boundary hits, which are reassigned to the nearest positive index.
    """
    cum = np.cumsum(p)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, us, side="left")
    hit_zero = np.flatnonzero(p[idx] == 0.0)
    if hit_zero.size:
        positive = np.flatnonzero(p > 0.0)
        for b in hit_zero:
            at = np.searchsorted(positive, idx[b], side="left")
            idx[b] = positive[at] if at < positive.size else positive[-1]
    return idx


def sample_sketch_mask(p: ProbabilityVector, s: int, rng: RngStream) -> Mask:
    """Draw s indices i.i.d. from p and accumulate 1/(s p_i) per hit.

    The result has at most s nonzero entries; repeated indices stack their
    increments. One uniform variate is consumed per draw.
    """
    if s < 1:
        raise InvalidDensityError(f"sketch budget must be >= 1, got {s}")
    pv = p.values
    idx = _categorical_indices(pv, np.atleast_1d(rng.uniform(s)))
    m = np.zeros(pv.size)
    np.add.at(m, idx, 1.0 / (s * pv[idx]))
    return Mask(m, kind="sketch")


def approximation_error(X: DataMatrix, w, m: Mask) -> float:
    """Euclidean distance between exact and masked feature vectors."""
    wv = as_vector(w)
    return float(
        np.linalg.norm(features(X, wv) - features(X, wv * m.values))
    )
