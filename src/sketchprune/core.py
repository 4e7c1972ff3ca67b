"""Shared value types, validation errors, and small linear-algebra helpers.

Array payloads are float64 numpy arrays frozen at construction time. Nothing
in this package mutates its arguments or touches numpy's global random state;
randomness always flows through an explicit :class:`RngStream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "DegenerateDistributionError",
    "InvalidDensityError",
    "EnumerationLimitError",
    "DivergenceError",
    "StepSizeError",
    "ZeroColumnError",
    "SupportError",
    "DataMatrix",
    "ProbabilityVector",
    "Mask",
    "RngStream",
    "as_vector",
    "row_norms",
    "features",
    "apply_mask",
]


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class DegenerateDistributionError(ValueError):
    """Every candidate weight is zero, so no sampling distribution exists."""


class InvalidDensityError(ValueError):
    """Requested mask budget is outside the representable range."""


class EnumerationLimitError(ValueError):
    """Exact enumeration would exceed the sequence budget."""


class DivergenceError(RuntimeError):
    """Training loss increased on consecutive steps."""


class StepSizeError(ValueError):
    """Step size exceeds the stability threshold of the kernel."""


class ZeroColumnError(ValueError):
    """A zero column makes a reciprocal-norm sum undefined."""


class SupportError(ValueError):
    """Sampling distribution has zero mass on an index that carries weight."""


def _validated_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionMismatchError(
            f"{name} expects a {ndim}-d array, got ndim={arr.ndim}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


def as_vector(v) -> np.ndarray:
    """Read-only float64 copy of a nonempty, finite 1-d array-like."""
    return _validated_array(v, "vector", ndim=1)


@dataclass(frozen=True)
class DataMatrix:
    """A d x n matrix whose rows are feature dimensions and whose columns
    are examples. Entries are finite float64 and read-only after
    construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _validated_array(self.values, "DataMatrix", ndim=2)
        )

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def row(self, i: int) -> np.ndarray:
        """Feature dimension i across all examples."""
        return self.values[i]

    def col(self, j: int) -> np.ndarray:
        """Example j as a length-d vector."""
        return self.values[:, j]


@dataclass(frozen=True)
class ProbabilityVector:
    """A categorical distribution over indices.

    Entries must be nonnegative and sum to 1. A deviation below 1e-9 is
    repaired by renormalization (the stored vector then sums to 1 within
    1e-12); anything larger is rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError("probabilities must form a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) >= 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.size

    def support(self) -> np.ndarray:
        """Indices with strictly positive probability."""
        return np.flatnonzero(self.values > 0.0)


_MASK_KINDS = ("sketch", "binary")


@dataclass(frozen=True)
class Mask:
    """A pruning mask over weight indices.

    kind="sketch" allows arbitrary nonnegative fractional entries (the
    reweighted multiplicities produced by sketch sampling); kind="binary"
    requires every entry to be exactly 0 or 1.
    """

    values: np.ndarray
    kind: str = "sketch"

    def __post_init__(self):
        arr = _validated_array(self.values, "Mask", ndim=1)
        if self.kind not in _MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if np.any(arr < 0.0):
            raise ValueError("mask entries must be nonnegative")
        if self.kind == "binary" and not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError("binary mask entries must be exactly 0 or 1")
        object.__setattr__(self, "values", arr)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible source of randomness.

    The same (seed, stream) pair always replays the same draw sequence;
    distinct stream ids are statistically independent. Concurrent callers
    should take one stream each via :meth:`substream` instead of sharing.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream id must be nonnegative")
        object.__setattr__(
            self, "_generator", np.random.default_rng((self.seed, self.stream))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def uniform(self, size=None):
        """Draws from U[0, 1)."""
        return self._generator.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._generator.standard_normal(size)

    def integers(self, low: int, high: int | None = None, size=None):
        """Integer draws from [low, high)."""
        return self._generator.integers(low, high, size)

    def substream(self, k: int) -> "RngStream":
        """Derive the k-th child stream deterministically."""
        if k < 0:
            raise ValueError("substream index must be nonnegative")
        mixed = (self.stream * 0x9E3779B97F4A7C15 + k + 1) % (2**63)
        return RngStream(self.seed, mixed)


def row_norms(X: DataMatrix) -> np.ndarray:
    """Euclidean norm of every row of X."""
    return np.linalg.norm(X.values, axis=1)


def features(X: DataMatrix, w) -> np.ndarray:
    """Feature vector X^T w, one entry per example column."""
    wv = as_vector(w)
    if wv.size != X.d:
        raise DimensionMismatchError(
            f"weight length {wv.size} does not match {X.d} matrix rows"
        )
    return X.values.T @ wv


def apply_mask(w, m: Mask) -> np.ndarray:
    """Entrywise product of a weight vector with a mask."""
    wv = as_vector(w)
    if wv.size != m.values.size:
        raise DimensionMismatchError(
            f"mask length {m.values.size} does not match weight length {wv.size}"
        )
    return as_vector(wv * m.values)
