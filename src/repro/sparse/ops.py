"""Vectorized operations over sparse containers.

These are the GraphBLAS-style helper primitives the paper leans on around
the core SPMV: row-wise norm reductions (Section 3.4 computes them with a
warp-per-row collective reduce), batching for out-of-memory-safe pairwise
computation, and stacking utilities used by dataset generators.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "row_norms",
    "row_sums",
    "vstack",
    "iter_row_batches",
    "even_row_bands",
]

#: Norm kinds accepted by :func:`row_norms`, mirroring the "Norm" column of
#: the paper's Table 1 (L0 = nonzero count, L1 = sum of |x|, L2 = sqrt of sum
#: of squares, plus the squared-L2 convenience the Euclidean expansion uses).
_NORM_KINDS = ("l0", "l1", "l2", "l2sq")


def row_norms(x: CSRMatrix, kind: str = "l2") -> np.ndarray:
    """Per-row norms of a CSR matrix as a dense vector.

    The segmented reduce is done with ``np.add.reduceat`` over the CSR value
    array, which is the host-side analogue of the paper's warp-level
    row reduction.
    """
    kind = kind.lower()
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    if kind == "l0":
        return x.row_degrees().astype(np.float64)
    if kind == "l1":
        values = np.abs(x.data)
    else:  # l2 / l2sq
        values = x.data * x.data
    out = _segment_sum_rows(x, values)
    if kind == "l2":
        np.sqrt(out, out=out)
    return out


def row_sums(x: CSRMatrix) -> np.ndarray:
    """Plain per-row sums (used by mean-centering for Correlation)."""
    return _segment_sum_rows(x, x.data)


def _segment_sum_rows(x: CSRMatrix, values: np.ndarray) -> np.ndarray:
    out = np.zeros(x.n_rows, dtype=np.float64)
    if x.nnz == 0:
        return out
    nonempty = np.flatnonzero(np.diff(x.indptr) > 0)
    if nonempty.size:
        sums = np.add.reduceat(values, x.indptr[nonempty])
        out[nonempty] = sums
    return out


def vstack(blocks: Sequence[CSRMatrix]) -> CSRMatrix:
    """Stack CSR matrices vertically; all blocks must share ``n_cols``."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack requires at least one block")
    n_cols = blocks[0].n_cols
    for b in blocks[1:]:
        if b.n_cols != n_cols:
            raise ShapeMismatchError(
                f"vstack blocks disagree on n_cols: {n_cols} vs {b.n_cols}")
    indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    offset = 0
    for b in blocks:
        indptr_parts.append(b.indptr[1:] + offset)
        offset += b.nnz
    return CSRMatrix(
        np.concatenate(indptr_parts),
        np.concatenate([b.indices for b in blocks]) if offset else np.empty(0, np.int64),
        np.concatenate([b.data for b in blocks]) if offset else np.empty(0, np.float64),
        (sum(b.n_rows for b in blocks), n_cols),
        check=False, sort=False)


def even_row_bands(n_rows: int, max_rows: int) -> np.ndarray:
    """Boundaries of near-equal row bands no wider than ``max_rows``.

    Returns the ``n_bands + 1`` band-start offsets (``[0, ..., n_rows]``).
    Unlike :func:`iter_row_batches`, which emits full-width batches plus a
    ragged tail, the bands are balanced to within one row — the shape the
    execution-plan tiler wants so concurrent tile workers get even work.
    ``n_rows == 0`` yields the single boundary ``[0]`` (an empty band set).
    """
    if max_rows <= 0:
        raise ValueError("max_rows must be positive")
    if n_rows == 0:
        return np.zeros(1, dtype=np.int64)
    n_bands = -(-n_rows // max_rows)
    base, extra = divmod(n_rows, n_bands)
    sizes = np.full(n_bands, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])


def iter_row_batches(x: CSRMatrix, batch_rows: int) -> Iterator[Tuple[int, CSRMatrix]]:
    """Yield ``(row_offset, batch)`` pairs covering ``x`` in order.

    This is the batching loop the paper's end-to-end k-NN benchmark uses so
    the dense pairwise-distance block never exceeds device memory.
    """
    if batch_rows <= 0:
        raise ValueError("batch_rows must be positive")
    for start in range(0, x.n_rows, batch_rows):
        yield start, x.slice_rows(start, min(start + batch_rows, x.n_rows))

