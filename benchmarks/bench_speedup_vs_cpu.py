"""§4.2 speedup experiment: simulated GPU vs modeled CPU.

The paper: "Compared to the CPU, we observed an average of 28.78x speedup
for the dot-product-based distances and 29.17x speedup for the distances
which require the non-annihilating product monoid." This bench reproduces
the two averages from the calibrated CPU model and our simulated kernel.
"""

import pytest

from repro.bench import save_report
from repro.bench.__main__ import PAPER_SPEEDUP, render_speedup, speedup_cells


def test_speedup_vs_cpu(benchmark):
    cells = benchmark.pedantic(speedup_cells, rounds=1, iterations=1)
    save_report("speedup_vs_cpu", render_speedup(cells))
    dot_rows, namm_rows = cells["dot"], cells["non-trivial"]
    dot_avg = sum(r[2] for r in dot_rows) / len(dot_rows)
    namm_avg = sum(r[2] for r in namm_rows) / len(namm_rows)

    # Shape claims: order-of-magnitude speedups in both families, with the
    # calibrated averages in the paper's neighborhood.
    assert dot_avg == pytest.approx(PAPER_SPEEDUP["dot"], rel=0.5)
    assert namm_avg == pytest.approx(PAPER_SPEEDUP["non-trivial"], rel=0.5)
    assert all(s > 3.0 for _, _, s in dot_rows + namm_rows)
