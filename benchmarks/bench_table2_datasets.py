"""Table 2: dataset shapes, densities and degree ranges.

Regenerates the paper's Table 2 for the synthetic replicas at benchmark
scale, side by side with the published full-scale numbers, and asserts the
scale-invariant structural facts.
"""

from repro.bench import bench_dataset, save_report
from repro.bench.__main__ import render_table2, table2_cells


def test_table2_datasets(benchmark):
    datasets = benchmark.pedantic(table2_cells, rounds=1, iterations=1)
    save_report("table2_datasets", render_table2(datasets))

    # Scale-invariant facts: the density *ordering* of the paper's Table 2.
    def density(name):
        return bench_dataset(name).density

    assert density("scrna") > density("nytimes") > density("movielens")
    # SEC degrees are absolute (<= 51 n-grams per company name).
    assert bench_dataset("sec_edgar").matrix.max_degree() <= 51
    # scRNA is the only dataset with a degree floor.
    assert bench_dataset("scrna").matrix.min_degree() > 0
    for name in ("movielens", "sec_edgar", "nytimes"):
        assert bench_dataset(name).matrix.min_degree() == 0
