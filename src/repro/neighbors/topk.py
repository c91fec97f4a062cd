"""Row-wise top-k selection over distance blocks.

The end-to-end k-NN benchmark (paper §4.2) computes the pairwise block in
row batches and keeps only each query's k nearest — that is what lets the
primitive "scale to datasets where the dense pairwise distance matrix may
not otherwise fit in the memory of the GPU". :func:`select_topk` picks a
batch's k best, and :class:`TopKAccumulator` keeps the running k-best
across batches of *candidate columns* (tiles or shards).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.workspace import scratch

__all__ = ["select_topk", "suppress_pairs", "TopKAccumulator",
           "SUPPRESSED_ID"]

#: Sentinel global id for suppressed candidates (tombstoned or superseded
#: rows in a mutable index's older generations). Larger than any real row
#: id the library accepts, so under the accumulator's ``(value, id)``
#: lexicographic tie-break a masked entry — value forced to ``+inf`` —
#: can never displace a real candidate.
SUPPRESSED_ID = np.int64(2 ** 62)

#: Column groups per unit of k for guessing a row's k-th key. The guess is
#: the k-th smallest group minimum: k minima are k distinct entries, so it
#: is never below the k-th key, and it is above it only when two of the
#: row's k smallest entries share a group. More groups make that rarer;
#: fewer make the minima cheaper to partition. At 16 per k, a high guess
#: leaves its row fewer than about n_cols / 16 entries below it, which is
#: all the row then has to select from.
_GROUPS_PER_K = 16
#: Bands narrower than this many columns per unit of k partition each row
#: outright: below two columns per group, the minima take as long to
#: partition as half the band, and the guess saves too little.
_NARROW_PER_K = 2 * _GROUPS_PER_K


def select_topk(distances: np.ndarray, k: int,
                ascending: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest (or largest) entries of each row, sorted.

    Returns ``(values, indices)`` of shape ``(n_rows, min(k, n_cols))``:
    the first ``k`` entries of a stable argsort of each row (NaN after
    ``+inf``, ties by index), found in O(n_cols) per row. Every entry
    strictly below the row's k-th smallest key is kept, then the
    lowest-index entries equal to it. The picks do not depend on how the
    columns were split, so a shard or tile merge selects the same ids.

    The k-th key is guessed from the minima of ``16·k`` column groups and
    checked by the count of entries below the guess: it is the key exactly
    when fewer than k are. A guess found high is replaced by the k-th
    smallest entry below it, and a NaN guess (fewer than k groups hold a
    number), like every row of a band narrower than ``32·k`` columns, is
    partitioned. Only comparisons with the k-th key decide the picks, so
    the route a row takes never changes them. ``distances`` is only read;
    the group minima, the partition copy and the keep/tie masks live in
    this thread's workspace.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2:
        raise ValueError("select_topk expects a 2-D block")
    n_rows, n_cols = distances.shape
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n_cols)
    if k == 0:
        return np.empty((n_rows, 0)), np.empty((n_rows, 0), dtype=np.int64)
    keyed = distances if ascending else -distances
    if n_cols < _NARROW_PER_K * k:
        kth = _partition_kth(keyed, k)
    else:
        kth = _guess_kth(keyed, k)
        unknown = np.flatnonzero(np.isnan(kth))
        if unknown.size:
            kth[unknown] = _partition_kth(keyed[unknown], k)
    keep = np.less(keyed, kth[:, None],
                   out=scratch("topk.keep", keyed.shape, np.bool_))
    # A NaN k-th key (it sorts last) keeps every number and ties the NaNs.
    nan_rows = np.flatnonzero(np.isnan(kth))
    if nan_rows.size:
        keep[nan_rows] = ~np.isnan(keyed[nan_rows])
    kept = np.flatnonzero(keep)
    starts = np.arange(n_rows + 1) * n_cols
    n_keep = np.diff(np.searchsorted(kept, starts))
    # k or more entries below the guess put it above the k-th key, which
    # is then the k-th smallest of them: they lie in fewer than k groups.
    high = n_keep >= k
    if high.any():
        row, col = np.divmod(kept, n_cols)
        val = keyed[row, col]
        mine = high[row]
        below = val[mine]
        order = np.lexsort((below, row[mine]))
        first = np.cumsum(n_keep[high]) - n_keep[high]
        kth[high] = below[order[first + k - 1]]
        kept = kept[~mine | (val < kth[row])]
        n_keep = np.diff(np.searchsorted(kept, starts))
    tied = np.equal(keyed, kth[:, None],
                    out=scratch("topk.tied", keyed.shape, np.bool_))
    if nan_rows.size:
        tied[nan_rows] = ~keep[nan_rows]
    # Each row takes its first k - n_keep ties, the lowest-index ones,
    # read off the ties' positions: ties[tie0[r]:] are row r's, in order.
    ties = np.flatnonzero(tied)
    tie0 = np.searchsorted(ties, starts[:-1])
    need = k - n_keep
    cut = np.arange(n_rows * k - kept.size) + np.repeat(
        tie0 - np.cumsum(need) + need, need)
    picks = np.concatenate([kept, ties[cut]])
    picks.sort()
    idx = picks.reshape(n_rows, k) % n_cols
    rows = np.arange(n_rows)[:, None]
    val = keyed[rows, idx]
    # Sort the k picks by (value, index).
    order = np.lexsort((idx, val), axis=1)
    return (val if ascending else -val)[rows, order], idx[rows, order]


def _partition_kth(keyed: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest key (NaN last), from a partitioned copy."""
    part = scratch("topk.partition", keyed.shape)
    np.copyto(part, keyed)
    part.partition(k - 1, axis=1)
    return part[:, k - 1].copy()


def _guess_kth(keyed: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest ``np.fmin`` minimum of ``16·k`` column
    groups: never below the row's k-th key, NaN where fewer than k groups
    hold a number. Group ``g`` is every ``16·k``-th column from ``g``, so
    the grouped band is a view; the leftover columns join the first
    groups."""
    n_rows, n_cols = keyed.shape
    groups = _GROUPS_PER_K * k
    whole = n_cols - n_cols % groups
    mins = np.fmin.reduce(
        keyed[:, :whole].reshape(n_rows, whole // groups, groups), axis=1,
        out=scratch("topk.minima", (n_rows, groups)))
    tail = n_cols - whole
    np.fmin(mins[:, :tail], keyed[:, whole:], out=mins[:, :tail])
    mins.partition(k - 1, axis=1)
    return mins[:, k - 1].copy()


def suppress_pairs(values: np.ndarray, indices: np.ndarray,
                   suppressed: np.ndarray,
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Mask candidates whose global id is in ``suppressed``.

    This is the cross-generation merge entry point of the mutable index: a
    base shard selects its per-row top-k over *all* physical rows (with k
    widened by the number of suppressed ids the shard owns), then every
    candidate belonging to a tombstoned or superseded row is rewritten to
    ``(+inf, SUPPRESSED_ID)``. The arrays stay rectangular, so
    :meth:`TopKAccumulator.update_pairs` merges them unchanged, and the
    sentinel sorts after every real candidate — bit-identity of the merged
    result against a fresh fit of the live corpus follows from the same
    ``(value, id)`` lexicographic order the frozen path uses.

    Returns the inputs untouched (no copy) when nothing matches.
    """
    suppressed = np.asarray(suppressed, dtype=np.int64)
    if suppressed.size == 0:
        return values, indices
    mask = np.isin(indices, suppressed)
    if not mask.any():
        return values, indices
    values = np.array(values, dtype=np.float64, copy=True)
    indices = np.array(indices, dtype=np.int64, copy=True)
    values[mask] = np.inf
    indices[mask] = SUPPRESSED_ID
    return values, indices


class TopKAccumulator:
    """Running k-nearest merge across column batches of the distance block,
    each pre-selected by :func:`select_topk`."""

    def __init__(self, n_rows: int, k: int):
        if n_rows < 0 or k <= 0:
            raise ValueError("need n_rows >= 0 and k > 0")
        self.n_rows = int(n_rows)
        self.k = int(k)
        self._values = np.full((n_rows, 0), np.inf)
        self._indices = np.zeros((n_rows, 0), dtype=np.int64)

    def update_pairs(self, values: np.ndarray, indices: np.ndarray) -> None:
        """Merge pre-selected ``(values, indices)`` candidates.

        This is the shard-merge entry point: each shard contributes its own
        per-row top-k (values plus *global* column ids) and the accumulator
        keeps the global k best, breaking ties by global id exactly as a
        single unsharded selection would.
        """
        values = np.asarray(values, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        if values.shape != indices.shape or values.ndim != 2:
            raise ValueError(
                f"values {values.shape} and indices {indices.shape} must be "
                f"equal-shaped 2-D arrays")
        if values.shape[0] != self.n_rows:
            raise ValueError(
                f"batch has {values.shape[0]} rows, expected {self.n_rows}")
        if values.shape[1] == 0:
            return
        self._values = np.concatenate([self._values, values], axis=1)
        self._indices = np.concatenate([self._indices, indices], axis=1)
        if self._values.shape[1] > self.k:
            self._compact()

    def _compact(self) -> None:
        # Tie-break on the *stored global* ids, not buffer position: shard
        # merges feed interleaved ids, where positional order lies.
        order = np.lexsort((self._indices, self._values), axis=1)[:, :self.k]
        rows = np.arange(self.n_rows)[:, None]
        self._values = self._values[rows, order]
        self._indices = self._indices[rows, order]

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(distances, indices)`` of the k best seen so far."""
        order = np.lexsort((self._indices, self._values), axis=1)
        rows = np.arange(self.n_rows)[:, None]
        return self._values[rows, order], self._indices[rows, order]
