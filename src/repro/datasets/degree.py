"""Degree-distribution analysis (paper Figure 1).

Figure 1 plots the CDFs of row-degree distributions on the 0-99th
percentile interval; the prose anchors several facts to it (99% of SEC
degrees < 10, 88% of MovieLens < 200, 98% of scRNA <= 5K, 99% of NY Times
< 1K). These helpers compute the CDF series the figure bench re-prints and
the percentile queries its assertions use.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["degree_cdf", "degree_percentile", "fraction_below",
           "degree_balanced_shards", "balanced_split"]


def degree_cdf(matrix: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """CDF series ``(degrees, cumulative_fraction)`` up to the 99th
    percentile, at 100 points.

    Mirrors Figure 1's axes: x = degree, y = fraction of rows with degree
    <= x, truncated at the 99th percentile to cut the extreme tail.
    """
    deg = np.sort(matrix.row_degrees())
    if deg.size == 0:
        return np.zeros(0), np.zeros(0)
    qs = np.linspace(0.0, 0.99, 100)
    xs = np.quantile(deg, qs, method="inverted_cdf").astype(np.float64)
    ys = np.searchsorted(deg, xs, side="right") / deg.size
    return xs, ys


def degree_percentile(matrix: CSRMatrix, q: float) -> float:
    """The degree at quantile ``q`` (0..1) of the row-degree distribution."""
    deg = matrix.row_degrees()
    if deg.size == 0:
        return 0.0
    return float(np.quantile(deg, q, method="inverted_cdf"))


def fraction_below(matrix: CSRMatrix, degree_bound: float) -> float:
    """Fraction of rows with degree strictly below ``degree_bound``."""
    deg = matrix.row_degrees()
    if deg.size == 0:
        return 1.0
    return float(np.count_nonzero(deg < degree_bound) / deg.size)


def balanced_split(matrix: CSRMatrix, n_parts: int, *,
                   axis: int = 0) -> List[np.ndarray]:
    """Partition row (``axis=0``) or column (``axis=1``) ids into
    ``n_parts`` nnz-balanced groups.

    Figure 1's long-tailed degree distributions are exactly why contiguous
    splits make bad partitions: a band of hub rows (or a clump of popular
    columns) can carry most of the work. This uses the classic
    longest-processing-time greedy — ids sorted by degree descending, each
    assigned to the currently lightest part (ties broken by part id, so
    the assignment is deterministic) — and returns each part's ids
    **sorted ascending**, which keeps part-local order consistent with
    global order for tie-broken merges. ``axis=0`` balances row degrees
    (what :class:`~repro.serve.ShardedIndex` shards by); ``axis=1``
    balances column degrees, the placement 1.5-D/2-D column panels reuse.
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 (rows) or 1 (columns), got {axis}")
    if axis == 0:
        deg = matrix.row_degrees()
        what = "rows"
    else:
        deg = np.bincount(np.asarray(matrix.indices, dtype=np.int64),
                          minlength=matrix.n_cols)
        what = "columns"
    n_items = int(deg.size)
    if n_parts <= 0:
        raise ValueError(f"n_parts must be positive, got {n_parts}")
    if n_parts > n_items:
        raise ValueError(
            f"cannot cut {n_items} {what} into {n_parts} parts")
    order = np.argsort(-deg, kind="stable")
    # Heap entries are (load, n_ids_assigned, part_id): the count tiebreak
    # spreads zero-degree ids round-robin instead of piling them on part 0,
    # so every part is non-empty whenever n_parts <= n_items.
    heap = [(0, 0, part_id) for part_id in range(n_parts)]
    heapq.heapify(heap)
    groups: List[List[int]] = [[] for _ in range(n_parts)]
    for item in order:
        load, count, part_id = heapq.heappop(heap)
        groups[part_id].append(int(item))
        heapq.heappush(heap, (load + int(deg[item]), count + 1, part_id))
    return [np.sort(np.asarray(g, dtype=np.int64)) for g in groups]


def degree_balanced_shards(matrix: CSRMatrix,
                           n_shards: int) -> List[np.ndarray]:
    """Partition row ids into ``n_shards`` nnz-balanced groups.

    The serving-layer name for :func:`balanced_split` over rows; see that
    function for the placement algorithm and determinism guarantees.
    """
    return balanced_split(matrix, n_shards, axis=0)

