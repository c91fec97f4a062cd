"""Execution-plan tiling: peak device footprint, tiled vs monolithic.

The plan layer's reason to exist: a memory-budgeted tile grid lets the
end-to-end k-NN query hold only one dense tile (plus its kernel workspace)
resident at a time, instead of the full ``(n, n)`` block — the paper's
§4.2 batched path, now planned from a byte budget rather than a hand-picked
batch size. This suite pins the claim down on a real benchmark dataset:
with the budget set to a quarter of the monolithic footprint the plan
produces >= 4 tiles and its peak resident bytes are *strictly* below the
full-block allocation, while distances and indices stay bit-identical.
"""

import numpy as np

from repro.bench import bench_dataset, save_report
from repro.bench.__main__ import plan_cells, render_plan
from repro.core.pairwise import pairwise_distances
from repro.neighbors.brute_force import NearestNeighbors
from repro.neighbors.topk import select_topk
from repro.plan.tiling import OUTPUT_ITEM_BYTES, WORKSPACE_ITEM_BYTES

DATASET = "movielens"
METRIC = "cosine"


def test_tiled_peak_below_monolithic(benchmark):
    cells = benchmark.pedantic(plan_cells, args=(DATASET, METRIC),
                               rounds=1, iterations=1)
    save_report("plan_tiling", render_plan(cells))
    mono, tiled, tiled4 = cells

    # The acceptance criterion: a 4-tile budget keeps the k-NN query's peak
    # simulated footprint strictly below the monolithic full-block bytes.
    assert tiled.n_tiles >= 4
    assert tiled.peak_resident_bytes < tiled.monolithic_bytes
    assert tiled.peak_resident_bytes < mono.peak_resident_bytes
    # The monolithic run holds the whole dense block (plus workspace).
    n = bench_dataset(DATASET).matrix.n_rows
    assert mono.peak_resident_bytes >= float(n) * n * OUTPUT_ITEM_BYTES
    # 4 workers change the modeled makespan, never the memory ceiling model
    # inputs (same grid, same budget).
    assert tiled4.n_tiles == tiled.n_tiles


def test_tiling_preserves_results():
    """Same query, huge vs 4-tile budget: bit-identical neighbors."""
    matrix = bench_dataset(DATASET).matrix
    n = matrix.n_rows
    mono_budget = (float(n) * n * OUTPUT_ITEM_BYTES
                   + float(matrix.nnz) * WORKSPACE_ITEM_BYTES)

    def query(budget, n_workers=1):
        nn = NearestNeighbors(n_neighbors=5, metric=METRIC,
                              batch_rows=n, n_workers=n_workers,
                              memory_budget_bytes=int(budget))
        return nn.fit(matrix).kneighbors()

    d_mono, _ = query(mono_budget * 2)
    d_tiled, _ = query(mono_budget // 4, n_workers=4)
    # Distances are bit-identical; the index *choice* may differ only among
    # equidistant neighbors at the k boundary (the grid decides which of
    # several tied rows streams in first, exactly as the legacy loop's
    # batch size did), so ties are checked through the distances.
    assert np.array_equal(d_mono, d_tiled)
    # Both runs must also match the untiled full-block selection exactly.
    ref_d, _ = select_topk(pairwise_distances(matrix, metric=METRIC), 5)
    assert np.array_equal(d_mono, ref_d)
