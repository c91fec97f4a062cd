"""Numerically-exact semiring block computation (shared kernel math).

Every execution strategy in this package produces the same numbers — they
differ in *schedule*, which is what their :class:`KernelStats` capture.
:func:`semiring_block` is the shared, vectorized host implementation of
that math. It reduces ⊗ with ⊕ over ``cols(a_i) ∩ cols(b_j)`` when ⊗
annihilates (the dot-product family), and over the full nonzero union
otherwise (the NAMM case, realized exactly as the paper's Eq. 3
decomposition).

For ⊕ = + the union decomposes algebraically:

    Σ_{∪} ⊗(a,b) = Σ_{a} ⊗(a,0) + Σ_{b} ⊗(0,b)
                   + Σ_{∩} [⊗(a,b) − ⊗(a,0) − ⊗(0,b)]

so one intersection sweep plus two per-row reductions suffices. For
idempotent ⊕ (max), two overlapping full sweeps — each staging one side's
row dense, exactly like the kernel's shared-memory pass — give the union
without exclusion bookkeeping, because re-reducing the intersection is
harmless under idempotence.

The block reaches a sink in **row bands** of at most :data:`_BAND_CELLS`
cells, so a consumer that reduces each band (top-k selection) never holds
the whole block. Bands are a host evaluation order only: every cell is
summed exactly as in one band. Each band is built in a
:mod:`repro.workspace` buffer that the thread's next band reuses.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.core.semiring import Semiring
from repro.errors import SemiringError
from repro.sparse.csr import CSRMatrix
from repro.workspace import MAX_CELLS, scratch

__all__ = [
    "semiring_block",
    "co_occurrence_counts",
    "gather_intersections",
]

#: Co-occurrences per chunk of a's nonzeros. The chunk boundaries are a
#: pinned summation order, not a memory bound: where one falls inside a row
#: of ``a``, that row's ⊕ = + cells are summed as ``(0 + p1) + p2`` rather
#: than in one running sum, and pinned digests depend on where they fall.
_CHUNK_ELEMENTS = 1 << 22

#: Co-occurrences per row block, the unit that bounds the gather's
#: temporaries (a row alone may hold more). Blocks are cut at a's row
#: boundaries inside a chunk, so they never change the summation order.
_BLOCK_ELEMENTS = 1 << 16

#: Output cells per row band handed to a :func:`semiring_block` sink (a
#: band holds one row at least), so that a band fits one workspace buffer.
#: A band starts at a row boundary, so it too never changes the summation
#: order.
_BAND_CELLS = MAX_CELLS

#: Rows of the staged side densified at once by the idempotent union sweeps.
_ROW_BATCH = 64

_IDEMPOTENT_UFUNCS = {"max": np.maximum, "min": np.minimum}


def _row_blocks(indptr: np.ndarray, cum: np.ndarray,
                stops: np.ndarray) -> Iterator[Tuple[int, int]]:
    """``[lo, hi)`` ranges of a's nonzeros, one per row block.

    ``cum[p]`` counts the co-occurrences of a's first ``p`` nonzeros. A
    chunk ends at the first nonzero boundary holding at least
    :data:`_CHUNK_ELEMENTS` more than its start (one nonzero at least).
    Inside a chunk, a block ends at the furthest row boundary within
    :data:`_BLOCK_ELEMENTS` of its start, or at the end of its first row if
    that row alone holds more. A block also ends at each of ``stops``
    (sorted row boundaries, as nonzero offsets); chunks do not, so a row
    that a chunk boundary splits is split the same way with or without
    them.
    """
    nnz = cum.size - 1
    lo = chunk_end = 0
    while lo < nnz:
        if lo == chunk_end:
            chunk_end = int(np.searchsorted(cum, cum[lo] + _CHUNK_ELEMENTS))
            chunk_end = min(max(chunk_end, lo + 1), nnz)
        hi = int(np.searchsorted(cum, cum[lo] + _BLOCK_ELEMENTS,
                                 side="right")) - 1
        if hi >= chunk_end:
            hi = chunk_end
        else:
            hi = int(indptr[np.searchsorted(indptr, hi, side="right") - 1])
            if hi <= lo:
                hi = min(int(indptr[np.searchsorted(indptr, lo,
                                                    side="right")]),
                         chunk_end)
        nxt = int(np.searchsorted(stops, lo, side="right"))
        if nxt < stops.size:
            hi = min(hi, int(stops[nxt]))
        yield lo, hi
        lo = hi


def gather_intersections(
    a: CSRMatrix, b: CSRMatrix, band_rows: Optional[int] = None,
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Stream all nonzero-column co-occurrences between rows of a and b.

    Yields row blocks ``(r0, r1, cells, a_val, b_val)``: one entry per
    (row-of-a ``i`` in ``[r0, r1)``, row-of-b ``j``, shared column) triple,
    with ``cells = (i - r0) * b.n_rows + j`` indexing the flattened output
    rows ``out[r0:r1]``. A cell's entries arrive in a's column order, and
    only a chunk boundary (:data:`_CHUNK_ELEMENTS`) splits a row between
    blocks. With ``band_rows``, no block spans two of the row bands
    ``[0, band_rows)``, ``[band_rows, 2 * band_rows)``, …. This is the host
    analogue of the kernel's shared-memory lookup hit stream.
    """
    if a.nnz == 0:
        return
    bt = b.transpose()  # k x n: column -> rows of b holding it
    hit_lens = bt.row_degrees()[a.indices]  # per a-nonzero: matching b rows
    cum = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(hit_lens, out=cum[1:])
    a_rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_degrees())
    stops = a.indptr[band_rows:-1:band_rows] if band_rows else a.indptr[:0]
    for lo, hi in _row_blocks(a.indptr, cum, stops):
        total = int(cum[hi] - cum[lo])
        if total == 0:
            continue
        lens = hit_lens[lo:hi]
        r0 = int(a_rows[lo])
        # Each nonzero's hits are one run of bt: repeat every run's start
        # less its offset in the block, then add a ramp over the block.
        starts = bt.indptr[a.indices[lo:hi]] - (cum[lo:hi] - cum[lo])
        gather = np.repeat(starts, lens)
        gather += np.arange(total, dtype=np.int64)
        cells = np.repeat((a_rows[lo:hi] - r0) * b.n_rows, lens)
        cells += bt.indices[gather]
        yield (r0, int(a_rows[hi - 1]) + 1, cells,
               np.repeat(a.data[lo:hi], lens), bt.data[gather])


#: A row band ``(r0, r1, rows)``: rows ``[r0, r1)`` of an output block.
Band = Tuple[int, int, np.ndarray]


def _intersection_bands(a: CSRMatrix, b: CSRMatrix, semiring: Semiring,
                        op: Callable, band_rows: int) -> Iterator[Band]:
    """The intersection block, ``band_rows`` rows at a time.

    Each row block reduces into its own band's rows only: ⊕ = + adds the
    block's ``bincount`` to them (so a chunk-split row still sums as
    ``(0 + p1) + p2``), max/min fold in element order. Every band is built
    in this thread's workspace buffer, which the next band overwrites. A
    zero-row ``a`` gives one empty band.
    """
    reduce_name = semiring.reduce.name
    blocks = gather_intersections(a, b, band_rows)
    block = next(blocks, None)
    for r0 in range(0, max(a.n_rows, 1), band_rows):
        r1 = min(r0 + band_rows, a.n_rows)
        band = scratch("band", (r1 - r0, b.n_rows))
        band.fill(semiring.reduce.identity)
        while block is not None and block[0] < r1:
            s0, s1, cells, a_vals, b_vals = block
            prods = np.asarray(op(a_vals, b_vals), dtype=np.float64)
            rows = band[s0 - r0:s1 - r0]
            if reduce_name == "plus":
                rows += np.bincount(cells, weights=prods,
                                    minlength=rows.size).reshape(rows.shape)
            else:
                _IDEMPOTENT_UFUNCS[reduce_name].at(rows.reshape(-1), cells,
                                                   prods)
            block = next(blocks, None)
        yield r0, r1, band


def co_occurrence_counts(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """Number of shared nonzero columns for every row pair (int matrix).

    This is the structural nonzero pattern a csrgemm-style sparse matmul
    would materialize; the §4.3 memory bench derives output density from it.
    """
    out = np.zeros((a.n_rows, b.n_rows), dtype=np.int64)
    for r0, r1, cells, _, _ in gather_intersections(a, b):
        rows = out[r0:r1]
        rows += np.bincount(cells, minlength=rows.size).reshape(rows.shape)
    return out


def _union_sum_bands(a: CSRMatrix, b: CSRMatrix, semiring: Semiring,
                     band_rows: int) -> Iterator[Band]:
    """The ⊕ = + union block by Eq. 3, ``band_rows`` rows at a time: the
    corrected intersection plus both side sums, computed once per call."""
    op = semiring.product

    def corrected(x, y):
        return (np.asarray(op(x, y), dtype=np.float64)
                - np.asarray(op(x, np.zeros_like(x)), dtype=np.float64)
                - np.asarray(op(np.zeros_like(y), y), dtype=np.float64))

    ra = _row_side_sums(a, lambda v: op(v, np.zeros_like(v)))
    rb = _row_side_sums(b, lambda v: op(np.zeros_like(v), v))
    for r0, r1, band in _intersection_bands(a, b, semiring, corrected,
                                            band_rows):
        band += ra[r0:r1, None]
        band += rb[None, :]
        yield r0, r1, band


def _row_side_sums(x: CSRMatrix, side_op: Callable) -> np.ndarray:
    """Per-row Σ of ⊗ applied against an implicit zero operand."""
    out = np.zeros(x.n_rows, dtype=np.float64)
    if x.nnz == 0:
        return out
    terms = np.asarray(side_op(x.data), dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(x.indptr) > 0)
    out[nonempty] = np.add.reduceat(terms, x.indptr[nonempty])
    return out


def _union_block_idempotent(a: CSRMatrix, b: CSRMatrix,
                            semiring: Semiring) -> np.ndarray:
    """Union reduce for idempotent ⊕ (max/min) via two dense-staged sweeps.

    Sweep 1 stages rows of ``a`` dense and streams ``b``'s nonzeros
    (covering a∩b and a̅∩b per output entry); sweep 2 stages rows of ``b``
    and streams ``a`` (covering a∩b̅, and harmlessly re-reducing a∩b —
    idempotence makes the overlap free).
    """
    op = semiring.product
    ufunc = _IDEMPOTENT_UFUNCS[semiring.reduce.name]
    out = np.full((a.n_rows, b.n_rows), semiring.reduce.identity,
                  dtype=np.float64)
    _sweep_dense_rows(out, a, b, op, ufunc, staged_is_b=False)
    _sweep_dense_rows(out, b, a, op, ufunc, staged_is_b=True)
    return out


def _sweep_dense_rows(out, staged: CSRMatrix, streamed: CSRMatrix, op, ufunc,
                      *, staged_is_b: bool) -> None:
    """One full SPMV sweep: stage ``staged`` rows dense (the kernel's
    shared-memory vector), stream the other side's nonzeros, segment-reduce
    per streamed row, and ⊕-fold into ``out``."""
    nonempty = np.flatnonzero(streamed.row_degrees() > 0)
    if nonempty.size == 0 or staged.n_rows == 0:
        return
    seg_starts = streamed.indptr[nonempty]
    for start in range(0, staged.n_rows, _ROW_BATCH):
        stop = min(start + _ROW_BATCH, staged.n_rows)
        dense = staged.slice_rows(start, stop).to_dense()  # (r, k)
        gathered = dense[:, streamed.indices]  # (r, nnz_streamed)
        if staged_is_b:
            prods = np.asarray(op(streamed.data[None, :], gathered),
                               dtype=np.float64)
        else:
            prods = np.asarray(op(gathered, streamed.data[None, :]),
                               dtype=np.float64)
        reduced = ufunc.reduceat(prods, seg_starts, axis=1)  # (r, n_nonempty)
        if staged_is_b:
            # staged rows are output *columns*; streamed rows are output rows.
            sub = out[np.ix_(nonempty, np.arange(start, stop))]
            ufunc(sub, reduced.T, out=sub)
            out[np.ix_(nonempty, np.arange(start, stop))] = sub
        else:
            sub = out[start:stop][:, nonempty]
            ufunc(sub, reduced, out=sub)
            out[start:stop][:, nonempty] = sub


def semiring_block(a: CSRMatrix, b: CSRMatrix, semiring: Semiring,
                   sink: Callable[[int, int, np.ndarray], None]) -> None:
    """Hand the ``(a.n_rows, b.n_rows)`` block of ``semiring`` to ``sink``,
    by intersection or union per the semiring's annihilation.

    Calls ``sink(r0, r1, rows)`` for consecutive row bands of at most
    :data:`_BAND_CELLS` cells (one row at least), in row order. The sink
    may overwrite ``rows``, but it is valid only until the sink returns,
    because the next band (or the next call on this thread) reuses its
    buffer, so copy it to keep it. The ⊕ = max/min union, whose two
    sweeps each cover every row, hands over its block as one band.
    """
    reduce_name = semiring.reduce.name
    if reduce_name != "plus" and reduce_name not in _IDEMPOTENT_UFUNCS:
        raise SemiringError(
            f"unsupported reduce monoid {reduce_name!r} for block computation")
    band_rows = max(1, _BAND_CELLS // max(b.n_rows, 1))
    if semiring.is_annihilating:
        bands = _intersection_bands(a, b, semiring, semiring.product,
                                    band_rows)
    elif reduce_name == "plus":
        bands = _union_sum_bands(a, b, semiring, band_rows)
    else:
        bands = [(0, a.n_rows, _union_block_idempotent(a, b, semiring))]
    for r0, r1, rows in bands:
        sink(r0, r1, rows)
