"""Compressed sparse row (CSR) matrix container.

The CSR format stores a sparse ``m x k`` matrix as three arrays:

- ``indptr`` (length ``m + 1``): row *i* owns the half-open slice
  ``indptr[i]:indptr[i + 1]`` of the other two arrays;
- ``indices``: the column index of each stored element;
- ``data``: the value of each stored element.

The paper's primitive consumes CSR inputs directly (design goal 3 in the
introduction: *process data inputs without transposition or copying*), so this
container is the substrate every kernel in :mod:`repro.kernels` builds on.
Columns within a row are kept sorted — the paper's Algorithm 2 and the
segmented reduction in Algorithm 3 both rely on that invariant.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError

__all__ = ["CSRMatrix"]


def _as_index_array(arr, name: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.ndim != 1:
        raise SparseFormatError(f"{name} must be 1-D, got ndim={out.ndim}")
    if out.size and not np.issubdtype(out.dtype, np.integer):
        raise SparseFormatError(f"{name} must be an integer array, got {out.dtype}")
    return np.ascontiguousarray(out, dtype=np.int64)


class CSRMatrix:
    """A validated, immutable-shape CSR sparse matrix.

    Parameters
    ----------
    indptr, indices, data:
        The three CSR arrays. ``indices`` and ``data`` must have equal length
        ``nnz``; ``indptr`` must be monotonically non-decreasing with
        ``indptr[0] == 0`` and ``indptr[-1] == nnz``.
    shape:
        ``(n_rows, n_cols)``.
    check:
        When true (the default) the arrays are validated; pass ``False`` only
        from internal call sites that construct provably-valid arrays.
    sort:
        When true, column indices are sorted within each row (stable, values
        carried along). When false the caller asserts they already are.
    """

    #: ``_stream_costs`` is the hybrid kernel's memo of the costs it derives
    #: from streaming this matrix (``repro.kernels.coo_spmv._stream_cost``);
    #: ``_row_bands`` holds the row bands plans cut from it
    #: (``repro.plan.pairwise_plan._row_band``).
    __slots__ = ("indptr", "indices", "data", "_shape", "_transpose",
                 "_stream_costs", "_row_bands")

    def __init__(self, indptr, indices, data, shape, *, check: bool = True,
                 sort: bool = True):
        self.indptr = _as_index_array(indptr, "indptr")
        self.indices = _as_index_array(indices, "indices")
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        n_rows, n_cols = int(shape[0]), int(shape[1])
        self._shape = (n_rows, n_cols)
        self._transpose = None
        self._stream_costs = None
        self._row_bands = None
        if check:
            self._validate()
        if sort:
            self._sort_indices_in_place()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, *, prune: bool = True) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array.

        Explicit zeros are dropped when ``prune`` is true (the default), which
        matches how the paper's datasets are stored: a zero entry is simply
        not a nonzero column.
        """
        arr = np.atleast_2d(np.asarray(dense, dtype=np.float64))
        if arr.ndim != 2:
            raise SparseFormatError("from_dense expects a 2-D array")
        if prune:
            mask = arr != 0.0
        else:
            mask = np.ones_like(arr, dtype=bool)
        counts = mask.sum(axis=1)
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(indptr, cols.astype(np.int64), arr[rows, cols], arr.shape,
                   check=False, sort=False)

    @classmethod
    def empty(cls, shape) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        indptr = np.zeros(int(shape[0]) + 1, dtype=np.int64)
        return cls(indptr, np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64), shape, check=False, sort=False)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def n_rows(self) -> int:
        return self._shape[0]

    @property
    def n_cols(self) -> int:
        return self._shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the dense size."""
        total = self._shape[0] * self._shape[1]
        return self.nnz / total if total else 0.0

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries in each row (the row ``degree``)."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        deg = self.row_degrees()
        return int(deg.max()) if deg.size else 0

    def min_degree(self) -> int:
        deg = self.row_degrees()
        return int(deg.min()) if deg.size else 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` views for row ``i``."""
        if not 0 <= i < self._shape[0]:
            raise IndexError(f"row {i} out of range for {self._shape[0]} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def slice_rows(self, start: int, stop: int) -> "CSRMatrix":
        """Return rows ``start:stop`` as a new CSR matrix (copies arrays)."""
        start = max(0, min(start, self._shape[0]))
        stop = max(start, min(stop, self._shape[0]))
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = (self.indptr[start:stop + 1] - lo).copy()
        return CSRMatrix(indptr, self.indices[lo:hi].copy(),
                         self.data[lo:hi].copy(), (stop - start, self._shape[1]),
                         check=False, sort=False)

    def take_rows(self, rows) -> "CSRMatrix":
        """Gather an arbitrary set of rows (in the given order) as a new CSR.

        This is the row-placement primitive behind degree-balanced index
        sharding: unlike :meth:`slice_rows`, the selected rows need not be
        contiguous. Duplicate row ids are allowed (the row is copied).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("take_rows expects a 1-D array of row ids")
        if rows.size and (rows.min() < 0 or rows.max() >= self._shape[0]):
            raise ValueError(
                f"row ids must be within [0, {self._shape[0]}), got range "
                f"[{rows.min()}, {rows.max()}]")
        degrees = self.row_degrees()[rows] if rows.size else rows
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        gather = (np.repeat(self.indptr[rows] - indptr[:-1], degrees)
                  + np.arange(total, dtype=np.int64))
        return CSRMatrix(indptr, self.indices[gather].copy(),
                         self.data[gather].copy(),
                         (rows.size, self._shape[1]),
                         check=False, sort=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``float64`` array."""
        out = np.zeros(self._shape, dtype=np.float64)
        rows = np.repeat(np.arange(self._shape[0]), self.row_degrees())
        out[rows, self.indices] = self.data
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self._shape, check=False, sort=False)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def map_values(self, func) -> "CSRMatrix":
        """Apply an element-wise function to the stored values only.

        Used for pre-transforms such as the :math:`\\sqrt{x}` that Hellinger
        distance applies before the dot-product semiring.
        """
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         np.asarray(func(self.data), dtype=np.float64),
                         self._shape, check=False, sort=False)

    def prune(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|value| <= tol``."""
        keep = np.abs(self.data) > tol
        counts = np.zeros(self._shape[0], dtype=np.int64)
        rows = np.repeat(np.arange(self._shape[0]), self.row_degrees())
        np.add.at(counts, rows[keep], 1)
        indptr = np.zeros(self._shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self._shape, check=False, sort=False)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, built by the first call and cached.

        The paper (Section 2) points out that CSR admits no zero-copy
        transpose, so the first call pays a full copy; later calls return
        the same object. It is shared, so callers must only read it, as its
        one caller, the intersection gather of
        :mod:`repro.kernels.functional`, does. Two threads may build it at
        once; both results are equal, so that race is harmless. The csrgemm
        baseline's transpose cost is modelled in its launch schedule
        (``baselines/csrgemm.py``), not paid by this host call.
        """
        if self._transpose is None:
            m, k = self._shape
            counts = np.bincount(self.indices, minlength=k)
            indptr = np.zeros(k + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            rows = np.repeat(np.arange(m, dtype=np.int64), self.row_degrees())
            order = np.argsort(self.indices, kind="stable")
            self._transpose = CSRMatrix(indptr, rows[order], self.data[order],
                                        (k, m), check=False, sort=False)
        return self._transpose

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        m, k = self._shape
        if m < 0 or k < 0:
            raise SparseFormatError(f"negative shape {self._shape}")
        if self.indptr.size != m + 1:
            raise SparseFormatError(
                f"indptr has length {self.indptr.size}, expected {m + 1}")
        if self.indptr.size and self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise SparseFormatError(
                f"indices ({self.indices.size}) and data ({self.data.size}) "
                "must have equal length")
        if self.indptr.size and self.indptr[-1] != self.indices.size:
            raise SparseFormatError(
                f"indptr[-1]={self.indptr[-1]} != nnz={self.indices.size}")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= k:
                raise SparseFormatError(
                    f"column indices out of range [0, {k})")

    def _sort_indices_in_place(self) -> None:
        degrees = np.diff(self.indptr)
        if self.indices.size == 0:
            return
        rows = np.repeat(np.arange(self._shape[0], dtype=np.int64), degrees)
        # Sorting by (row, col) lexicographically restores per-row order in
        # one vectorized pass instead of a Python loop over rows.
        order = np.lexsort((self.indices, rows))
        if not np.array_equal(order, np.arange(order.size)):
            self.indices = self.indices[order]
            self.data = self.data[order]

    def has_sorted_indices(self) -> bool:
        """True when column indices are strictly increasing within each row."""
        if self.nnz == 0:
            return True
        degrees = np.diff(self.indptr)
        rows = np.repeat(np.arange(self._shape[0], dtype=np.int64), degrees)
        diffs = np.diff(self.indices)
        same_row = np.diff(rows) == 0
        return bool(np.all(diffs[same_row] > 0))

    def has_canonical_format(self) -> bool:
        """True when indices are sorted and no duplicate columns exist."""
        return self.has_sorted_indices()

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self._shape}, nnz={self.nnz}, "
                f"density={self.density:.4%})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (self._shape == other._shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    def __hash__(self):  # CSR matrices are mutable containers
        raise TypeError("CSRMatrix is unhashable")

    def allclose(self, other: "CSRMatrix", *, rtol: float = 1e-9,
                 atol: float = 1e-12) -> bool:
        """Structural equality with floating-point tolerance on values."""
        if self._shape != other._shape:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    def memory_nbytes(self) -> int:
        """Bytes used by the three CSR arrays (the paper's footprint unit)."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes


def check_same_n_cols(a: CSRMatrix, b: CSRMatrix) -> None:
    """Raise unless ``a`` and ``b`` share a feature dimension."""
    if a.n_cols != b.n_cols:
        raise ShapeMismatchError(
            f"feature dimensions differ: {a.n_cols} != {b.n_cols}")
