"""Pruning scores for linear feature maps and the mask selection rules
built on them."""

from __future__ import annotations

import math
from typing import Sequence

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
)

__all__ = [
    "synflow_scores",
    "snip_scores_l1",
    "scores_to_probabilities",
    "select_topk",
    "select_randomized",
    "layerwise_randomized_selection",
]


def synflow_scores(inputs, w) -> np.ndarray:
    """Path-product saliency of a linear map at a nonnegative probe input.

    score_i = inputs_i * |w_i|. Probing with the row norms of a data matrix
    makes the normalized scores equal to the variance-minimizing sampling
    distribution for that matrix.
    """
    iv = as_vector(inputs)
    wv = as_vector(w)
    if iv.size != wv.size:
        raise DimensionMismatchError(
            f"input length {iv.size} does not match weight length {wv.size}"
        )
    if np.any(iv < 0.0):
        raise ValueError("probe input must be nonnegative")
    return as_vector(iv * np.abs(wv))


def snip_scores_l1(X: DataMatrix, y, w) -> np.ndarray:
    """Connection sensitivity of the mean absolute residual at a full mask.

    score_j = (1/n) |w_j| |sum_i sign(x_i^T w - y_i) X_{j,i}|, with the sign
    of a zero residual taken as zero.
    """
    yv = as_vector(y)
    wv = as_vector(w)
    if yv.size != X.n:
        raise DimensionMismatchError(
            f"label length {yv.size} does not match {X.n} examples"
        )
    signs = np.sign(features(X, wv) - yv)
    return as_vector(np.abs(wv) * np.abs(X.values @ signs) / X.n)


def scores_to_probabilities(scores) -> ProbabilityVector:
    """Normalize scores into a sampling distribution."""
    sv = as_vector(scores)
    if np.any(sv < 0.0):
        raise ValueError("scores must be nonnegative")
    total = float(sv.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("all scores are zero")
    return ProbabilityVector(sv / total)


def select_topk(scores, s: int) -> Mask:
    """Binary mask keeping the s largest scores, ties to the lower index."""
    sv = as_vector(scores)
    if s < 1 or s > sv.size:
        raise InvalidDensityError(
            f"keep count must lie in [1, {sv.size}], got {s}"
        )
    order = np.argsort(-sv, kind="stable")
    m = np.zeros(sv.size)
    m[order[:s]] = 1.0
    return Mask(m, kind="binary")


def select_randomized(scores, s: int, rng: RngStream) -> Mask:
    """Binary mask of s indices drawn without replacement, each draw
    proportional to the scores still unselected.

    Uses the Efraimidis-Spirakis keys in O(d): one uniform u_i per weight
    gives the key log(-log(1 - u_i)) - log(score_i), and the s smallest keys
    are kept. That has the distribution of s sequential score-proportional
    draws. Keys stay in the log domain so that a subnormal score still gets
    a finite key; a zero score gets the key +inf and is never kept.
    Exactly d uniform variates are consumed, whatever s is.
    """
    sv = as_vector(scores)
    if np.any(sv < 0.0):
        raise ValueError("scores must be nonnegative")
    if s < 1 or s > sv.size:
        raise InvalidDensityError(
            f"keep count must lie in [1, {sv.size}], got {s}"
        )
    positive = sv > 0.0
    n_positive = int(np.count_nonzero(positive))
    if n_positive < s:
        raise DegenerateDistributionError(
            f"only {n_positive} positive scores for a keep count of {s}"
        )
    u = rng.uniform(sv.size)
    keys = np.full(sv.size, np.inf)
    # u_i == 0 gives an exponential of 0 and the key -inf, the smallest key
    # there is, so the log of zero is expected there and not an error.
    with np.errstate(divide="ignore"):
        keys[positive] = np.log(-np.log1p(-u[positive])) - np.log(sv[positive])
    m = np.zeros(sv.size)
    m[np.argpartition(keys, s - 1)[:s]] = 1.0
    return Mask(m, kind="binary")


def layerwise_randomized_selection(
    layer_scores: Sequence, global_density: float, rng: RngStream
) -> list[Mask]:
    """Global-threshold-then-randomize selection across layers.

    A global keep count k = round(density * total) is resolved by a stable
    descending sort of the concatenated scores (ties fall to the lower layer
    and index), the survivor count inside each layer fixes that layer's
    budget, and each budget is refilled by randomized score-proportional
    selection within the layer. A layer with zero budget gets an all-zero
    mask.
    """
    vecs = [as_vector(ls) for ls in layer_scores]
    if not vecs:
        raise DimensionMismatchError("at least one layer is required")
    sizes = np.array([v.size for v in vecs])
    total = int(sizes.sum())
    if not 0.0 < global_density <= 1.0:
        raise InvalidDensityError(f"density must lie in (0, 1], got {global_density}")
    k = int(math.floor(global_density * total + 0.5))
    if k < 1:
        raise InvalidDensityError(
            f"density {global_density} keeps no weights out of {total}"
        )
    concat = np.concatenate(vecs)
    survivors = np.argsort(-concat, kind="stable")[:k]
    layer_of = np.searchsorted(np.cumsum(sizes), survivors, side="right")
    counts = np.bincount(layer_of, minlength=len(vecs))
    masks = []
    for vec, count in zip(vecs, counts):
        if count == 0:
            masks.append(Mask(np.zeros(vec.size), kind="binary"))
        else:
            masks.append(select_randomized(vec, int(count), rng))
    return masks
