"""Append-only CSR row log: the mutable index's memtable substrate.

A :class:`CSRRowBuilder` accumulates sparse rows one at a time without
ever reallocating earlier rows (each append is amortized O(row nnz)); the
log is materialized to an immutable :class:`~repro.sparse.csr.CSRMatrix`
with :meth:`build` or :meth:`gather`. Superseded versions of a row stay in
the log — LSM-style, the caller tracks which position is the latest for
each external id and gathers only those.

Rows are canonicalized on append (column-sorted, duplicate columns
rejected, explicit zeros pruned) so a gathered matrix is bit-identical to
:meth:`CSRMatrix.from_dense` of the same values — the property the mutable
index's fresh-fit differential harness leans on.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.csr import CSRMatrix

__all__ = ["CSRRowBuilder"]


class CSRRowBuilder:
    """Grow a CSR matrix row by row (see module docstring)."""

    def __init__(self, n_cols: int):
        if n_cols < 0:
            raise ValueError(f"n_cols must be non-negative, got {n_cols}")
        self._n_cols = int(n_cols)
        self._indices: List[np.ndarray] = []
        self._data: List[np.ndarray] = []
        self._nnz = 0

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Rows appended so far (including superseded versions)."""
        return len(self._indices)

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def nnz(self) -> int:
        return self._nnz

    # ------------------------------------------------------------------
    def append(self, indices, values) -> int:
        """Append one sparse row; returns its position in the log."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if indices.shape != values.shape:
            raise SparseFormatError(
                f"row indices ({indices.size}) and values ({values.size}) "
                f"differ in length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self._n_cols:
                raise SparseFormatError(
                    f"row column ids must be within [0, {self._n_cols}), "
                    f"got range [{indices.min()}, {indices.max()}]")
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            values = values[order]
            if indices.size > 1 and (np.diff(indices) == 0).any():
                raise SparseFormatError(
                    "row has duplicate column ids; coalesce before append")
            nonzero = values != 0.0
            indices = indices[nonzero]
            values = values[nonzero]
        self._indices.append(indices)
        self._data.append(values.copy())
        self._nnz += indices.size
        return len(self._indices) - 1

    def row(self, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(indices, values)`` of one logged row."""
        return self._indices[position], self._data[position]

    # ------------------------------------------------------------------
    def gather(self, positions) -> CSRMatrix:
        """The rows at ``positions``, in that order, as a CSR matrix.

        This is the latest-wins read path: the caller passes only the
        newest position per external id and superseded log entries are
        skipped.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim != 1:
            raise ValueError("gather expects a 1-D array of positions")
        if positions.size and (positions.min() < 0
                               or positions.max() >= self.n_rows):
            raise ValueError(
                f"positions must be within [0, {self.n_rows}), got range "
                f"[{positions.min()}, {positions.max()}]")
        chosen_idx = [self._indices[p] for p in positions]
        chosen_val = [self._data[p] for p in positions]
        degrees = np.array([idx.size for idx in chosen_idx], dtype=np.int64)
        indptr = np.zeros(positions.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = (np.concatenate(chosen_idx) if chosen_idx
                   else np.zeros(0, dtype=np.int64))
        data = (np.concatenate(chosen_val) if chosen_val
                else np.zeros(0, dtype=np.float64))
        return CSRMatrix(indptr, indices, data,
                         (positions.size, self._n_cols),
                         check=False, sort=False)

    def build(self) -> CSRMatrix:
        """Every logged row, in append order."""
        return self.gather(np.arange(self.n_rows, dtype=np.int64))
