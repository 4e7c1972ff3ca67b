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
    _check_budget,
    _check_density,
    _frozen,
    _nonnegative_vector,
    _vector_of_length,
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
    iv = _nonnegative_vector(inputs, "probe input")
    wv = _vector_of_length(w, iv.size, "weight", "probe inputs")
    scores = np.abs(wv)
    np.multiply(iv, scores, out=scores)
    return as_vector(_frozen(scores))


def snip_scores_l1(X: DataMatrix, y, w) -> np.ndarray:
    """Connection sensitivity of the mean absolute residual at a full mask.

    score_j = (1/n) |w_j| |sum_i sign(x_i^T w - y_i) X_{j,i}|, with the sign
    of a zero residual taken as zero.
    """
    yv = _vector_of_length(y, X.n, "label", "examples")
    wv = as_vector(w)
    signs = np.sign(features(X, wv) - yv)
    scores = X.values @ signs
    np.abs(scores, out=scores)
    np.multiply(np.abs(wv), scores, out=scores)
    scores /= X.n
    return as_vector(_frozen(scores))


def scores_to_probabilities(scores) -> ProbabilityVector:
    """Normalize scores into a sampling distribution."""
    sv = _nonnegative_vector(scores, "score")
    total = float(sv.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("all scores are zero")
    return ProbabilityVector(sv / total)


def select_topk(scores, s: int) -> Mask:
    """Binary mask keeping the s largest scores, ties to the lower index."""
    sv = as_vector(scores)
    _check_budget(s, sv.size)
    order = np.argsort(-sv, kind="stable")
    m = np.zeros(sv.size)
    m[order[:s]] = 1.0
    return Mask(_frozen(m), kind="binary")


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
    sv = _nonnegative_vector(scores, "score")
    _check_budget(s, sv.size)
    n_positive = int(np.count_nonzero(sv))
    if n_positive < s:
        raise DegenerateDistributionError(
            f"only {n_positive} positive scores for a keep count of {s}"
        )
    # The keys are computed in the uniform draw's own buffer, one ufunc at a
    # time, so each has the bits it had when computed on copies of the
    # positive entries. u_i == 0 gives an exponential of 0 and the key -inf,
    # the smallest key there is, so that log of zero is expected; so is a
    # zero score's, whose key (nan when its u_i is 0) is set to +inf below.
    keys = rng.uniform(sv.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.negative(keys, out=keys)
        np.log1p(keys, out=keys)
        np.negative(keys, out=keys)
        np.log(keys, out=keys)
        np.subtract(keys, np.log(sv), out=keys)
    keys[sv == 0.0] = np.inf
    # Only the s kept indices outlive the keys and their argpartition.
    kept = np.argpartition(keys, s - 1)[:s].copy()
    del keys
    m = np.zeros(sv.size)
    m[kept] = 1.0
    return Mask(_frozen(m), kind="binary")


def layerwise_randomized_selection(
    layer_scores: Sequence, global_density: float, rng: RngStream
) -> list[Mask]:
    """Global-threshold-then-randomize selection across layers.

    A global keep count k = round(density * total) is resolved by
    select_topk over the concatenated scores (ties fall to the lower layer
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
    _check_density(global_density)
    k = int(math.floor(global_density * total + 0.5))
    if k < 1:
        raise InvalidDensityError(
            f"density {global_density} keeps no weights out of {total}"
        )
    kept = select_topk(_frozen(np.concatenate(vecs)), k)
    counts = np.add.reduceat(kept.values, np.cumsum(sizes) - sizes)
    masks = []
    for vec, count in zip(vecs, counts):
        if count == 0:
            masks.append(Mask(_frozen(np.zeros(vec.size)), kind="binary"))
        else:
            masks.append(select_randomized(vec, int(count), rng))
    return masks
