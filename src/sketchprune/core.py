"""Shared value types, validation errors, and small linear-algebra helpers.

Array payloads are float64 numpy arrays frozen at construction time. Nothing
in this package mutates its arguments or touches numpy's global random state;
randomness always flows through an explicit :class:`RngStream`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

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
    """Training diverged: the linearized loss rose on a step, or the
    least-squares loss went non-finite or rose on two consecutive steps."""


class StepSizeError(ValueError):
    """Step size exceeds the stability threshold of the kernel."""


class ZeroColumnError(ValueError):
    """A zero column makes a reciprocal-norm sum undefined."""


class SupportError(ValueError):
    """Sampling distribution has zero mass on an index that carries weight."""


# Entries in each block of a streamed pass (256 KiB of float64). The size
# sets memory and speed, never a result: each pass draws, reduces and sums
# its items in one order at any size. On row_norms of pipeline's d x n
# matrix, the largest a command builds, at 4096 x 256 (2-core Xeon, numpy
# 2.4, one BLAS thread), blocks of 2^14 to 2^17 entries took the same time
# within 13%, 2^16 the least and 2^15 6% more, and 2^13 24% more; a pass
# holds one block of squares, 8 bytes an entry.
_BLOCK_ELEMENTS = 2**15


def _blocks(count: int, width: int):
    """Slices of range(count), in order, of max(1, _BLOCK_ELEMENTS // width) items."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _all_finite(arr: np.ndarray) -> bool:
    # One pass over arr, a block at a time, so no mask of arr's size is
    # built; ravel in memory order is a view of a contiguous array.
    flat = arr.ravel(order="K")
    return all(np.isfinite(flat[block]).all() for block in _blocks(flat.size, 1))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: how the library hands over an array it has just
    built, so that validation adopts it instead of copying it."""
    arr.setflags(write=False)
    return arr


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Nonnegative weights divided by their sum: one distribution for a (d,)
    vector, or one per row of a (k, d) stack. Raises where one has no mass."""
    total = weights.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise DegenerateDistributionError("every sampling weight is zero")
    return weights / total


def _validated_array(values, name: str, ndim: int) -> np.ndarray:
    # A float64 array that owns its memory and is already read-only is
    # adopted, not copied: freezing a fresh array hands it over (_frozen),
    # which spares a copy of each matrix, norm, score and mask the library
    # builds. Writeable arrays and views are still copied.
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    ):
        arr = values
    else:
        arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionMismatchError(
            f"{name} expects a {ndim}-d array, got ndim={arr.ndim}"
        )
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must not be empty")
    if not _all_finite(arr):
        raise ValueError(f"{name} entries must be finite")
    arr.setflags(write=False)
    return arr


def as_vector(v) -> np.ndarray:
    """Read-only float64 copy of a nonempty, finite 1-d array-like; a
    read-only float64 array that owns its memory is returned as it is."""
    return _validated_array(v, "vector", ndim=1)


def _check_at_least(low: int, **counts: int):
    """Raise ValueError for the first named count that is not an integer
    (a bool is not one; a numpy integer is) or is below low."""
    for name, k in counts.items():
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {k!r}")
        if k < low:
            raise ValueError(f"{name} must be >= {low}, got {k}")


def _nonnegative_vector(v, name: str) -> np.ndarray:
    """as_vector(v), validated under name, with no negative entry."""
    vec = _validated_array(v, name, ndim=1)
    if np.any(vec < 0.0):
        raise ValueError(f"{name} entries must be nonnegative")
    return vec


def _check_length(k: int, n: int, name: str, what: str):
    if k != n:
        raise DimensionMismatchError(f"{name} length {k} does not match {n} {what}")


def _vector_of_length(v, n: int, name: str, what: str) -> np.ndarray:
    """as_vector(v), checked to have n entries: one per matrix row, example,
    output or parameter, as `what` names them."""
    vec = as_vector(v)
    _check_length(vec.size, n, name, what)
    return vec


def _check_budget(s: int, d: int | None = None):
    """A sketch keeps s >= 1 draws; a binary mask over d weights keeps
    between 1 and d of them; either way s is an integer, as for counts."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral):
        raise InvalidDensityError(f"budget must be an integer, got {s!r}")
    top = math.inf if d is None else d
    if not 1 <= s <= top:
        raise InvalidDensityError(f"budget must lie in [1, {top}], got {s}")


def _check_density(density: float):
    """A density, the share of weights kept, lies in (0, 1]; nan fails."""
    if not 0.0 < density <= 1.0:
        raise InvalidDensityError(f"density must lie in (0, 1], got {density}")


@dataclass(frozen=True)
class DataMatrix:
    """A d x n matrix whose rows are feature dimensions and whose columns
    are examples. Entries are finite float64 and read-only after
    construction.

    What depends only on the values is computed on first use and kept on
    the matrix, read-only: its row norms (see `row_norms`) and its n x n
    Gram matrix X^T X (which `train_least_squares` steps on when n <= d).
    """

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

    # cached_property stores into the instance __dict__ directly, so it
    # works on a frozen dataclass.
    @cached_property
    def _norms(self) -> np.ndarray:
        return _frozen(_row_norms(self.values))

    @cached_property
    def _gram(self) -> np.ndarray:
        return _frozen(self.values.T @ self.values)


@dataclass(frozen=True)
class ProbabilityVector:
    """A categorical distribution over indices.

    Entries must be nonnegative and sum to 1. A deviation below 1e-9 is
    repaired by renormalization (the stored vector then sums to 1 within
    1e-12); anything larger is rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _nonnegative_vector(self.values, "ProbabilityVector")
        total = float(arr.sum())
        if abs(total - 1.0) >= 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "values", _frozen(arr / total))

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
        arr = _nonnegative_vector(self.values, "Mask")
        if self.kind not in _MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}")
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
        _check_at_least(0, seed=self.seed, stream=self.stream)
        object.__setattr__(
            self, "_generator", np.random.default_rng((self.seed, self.stream))
        )

    def uniform(self, size=None):
        """Draws from U[0, 1)."""
        return self._generator.random(size)

    def normal(self, size=None):
        """Standard normal draws."""
        return self._generator.standard_normal(size)

    def integers(self, low: int, high: int | None = None, size=None):
        """Integer draws from [low, high)."""
        return self._generator.integers(low, high, size)

    def chisquare(self, df, size=None):
        """Chi-square draws with df degrees of freedom."""
        return self._generator.chisquare(df, size)

    def substream(self, k: int) -> "RngStream":
        """Derive the k-th child stream deterministically."""
        _check_at_least(0, k=k)
        # on Python ints, since the product overflows any numpy integer
        mixed = (int(self.stream) * 0x9E3779B97F4A7C15 + int(k) + 1) % (2**63)
        return RngStream(self.seed, mixed)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a 2-d float64 array, bit-identical to
    np.linalg.norm(A, axis=1), squaring a block of rows at a time."""
    d, n = A.shape
    # Only in C order is each row of a block summed in the same (pairwise)
    # order as in the whole matrix; in F order a one-row block is not, so
    # any other layout is reduced as one block.
    out = np.empty(d)
    for rows in _blocks(d, n) if A.flags.c_contiguous else (slice(None),):
        block = A[rows]
        np.sqrt(np.add.reduce(block * block, axis=1), out=out[rows])
    return out


def row_norms(X: DataMatrix) -> np.ndarray:
    """Euclidean norm of every row of X.

    The d-vector is computed once per matrix and shared by every call, so
    it is read-only: copy it before writing.
    """
    return X._norms


def features(X: DataMatrix, w) -> np.ndarray:
    """Feature vector X^T w, one entry per example column."""
    return X.values.T @ _vector_of_length(w, X.d, "weight", "matrix rows")
