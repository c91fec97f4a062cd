"""Table 3: end-to-end k-NN runtime, baseline vs RAFT-style primitive.

For every dataset x distance cell the paper reports, runs the end-to-end
k-NN query on (a) the paper's baseline — csrgemm for the dot-product-based
distances, the naive full-union CSR kernel for the non-trivial metrics —
and (b) our load-balanced hybrid CSR+COO kernel with the hash-table row
cache (the configuration the paper benchmarked). Reports simulated V100
seconds and asserts the paper's headline shape:

- the non-trivial (NAMM) block is *dominated* by our kernel on every cell;
- the dot-product block is *competitive everywhere* and won on some
  datasets (the paper won 2 of 4 and was comparable on the rest).
"""

from repro.bench import save_report
from repro.bench.__main__ import DATASETS, render_table3, table3_cells
from repro.core.distances import DOT_PRODUCT_DISTANCES, NAMM_DISTANCES

_CELLS = {}


def _maybe_write_report():
    """Emit the full Table 3 once both family sweeps have populated it."""
    if len(_CELLS) < len(DATASETS) * 14:
        return
    save_report("table3_runtime", render_table3(_CELLS))


def test_table3_dot_product_family(benchmark):
    cells = benchmark.pedantic(table3_cells, args=(DOT_PRODUCT_DISTANCES,),
                               rounds=1, iterations=1)
    _CELLS.update(cells)
    _maybe_write_report()
    # Competitive everywhere: simulated time within 3x of the baseline.
    for (metric, ds), (base, ours) in cells.items():
        assert ours.simulated_seconds < 3.0 * base.simulated_seconds, \
            f"{metric}/{ds}: ours {ours.simulated_seconds:.4f}s vs " \
            f"baseline {base.simulated_seconds:.4f}s"
    # And faster outright on at least one dataset per the paper's claim.
    for metric in DOT_PRODUCT_DISTANCES:
        wins = sum(cells[(metric, ds)][1].simulated_seconds
                   < cells[(metric, ds)][0].simulated_seconds
                   for ds in DATASETS)
        assert wins >= 1, f"{metric}: baseline won every dataset"


def test_table3_namm_family(benchmark):
    cells = benchmark.pedantic(table3_cells, args=(NAMM_DISTANCES,),
                               rounds=1, iterations=1)
    _CELLS.update(cells)
    _maybe_write_report()
    # "our approach dominates amongst all these metrics" — every cell.
    for (metric, ds), (base, ours) in cells.items():
        assert ours.simulated_seconds < base.simulated_seconds, \
            f"{metric}/{ds}: ours {ours.simulated_seconds:.4f}s vs " \
            f"baseline {base.simulated_seconds:.4f}s"
    # The paper's margins are large (2.5x-30x); require at least 2x mean.
    ratios = [base.simulated_seconds / ours.simulated_seconds
              for (base, ours) in cells.values()]
    assert sum(ratios) / len(ratios) > 2.0
