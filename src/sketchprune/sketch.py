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
    Mask,
    ProbabilityVector,
    RngStream,
    _check_at_least,
    _check_budget,
    _frozen,
    _normalized,
    _vector_of_length,
    row_norms,
)

__all__ = [
    "optimal_probabilities",
    "uniform_probabilities",
    "sample_sketch_mask",
]


def optimal_probabilities(X: DataMatrix, w) -> ProbabilityVector:
    """Sampling distribution proportional to row norm times weight magnitude.

    p_i = ||X_(i)|| |w_i| / sum_j ||X_(j)|| |w_j|. Among all distributions
    this one minimizes the expected squared error of the sketched feature
    vector, by Cauchy-Schwarz on the per-index variance terms.
    """
    wv = _vector_of_length(w, X.d, "weight", "matrix rows")
    return ProbabilityVector(_optimal_probabilities(row_norms(X), wv))


def _optimal_probabilities(norms: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """The products norms * |wv|, normalized by core._normalized, for
    weights already validated to the length of norms: one distribution for
    (d,) norms, or one per row for a (k, d) stack."""
    return _normalized(norms * np.abs(wv))


def uniform_probabilities(d: int) -> ProbabilityVector:
    """The uniform distribution over d indices."""
    _check_at_least(1, d=d)
    return ProbabilityVector(np.full(d, 1.0 / d))


def _categorical_indices(p: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup of uniform draws of any shape, in that shape,
    against the cumulative bins of the positive entries of p.

    A draw that lands exactly on a bin boundary resolves to the lower index.
    Only positive entries have bins and the last ends at 1, so no draw from
    [0, 1) reaches a zero-probability index."""
    support = np.flatnonzero(p > 0.0)
    cum = np.cumsum(p[support])
    cum[-1] = 1.0
    return support[np.searchsorted(cum, us, side="left")]


def sample_sketch_mask(p: ProbabilityVector, s: int, rng: RngStream) -> Mask:
    """Draw s indices i.i.d. from p and accumulate 1/(s p_i) per hit.

    The result has at most s nonzero entries; repeated indices stack their
    increments, in draw order. One uniform variate is consumed per draw.
    """
    _check_budget(s)
    pv = p.values
    idx = _categorical_indices(pv, rng.uniform(s))
    mask = np.bincount(idx, weights=1.0 / (s * pv[idx]), minlength=pv.size)
    return Mask(_frozen(mask), kind="sketch")

