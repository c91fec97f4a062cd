"""§3 ablations: why the load-balanced hybrid design wins.

Reproduces the paper's Section 3 narrative quantitatively:

- **Algorithm 1 vs 2 vs 3** on a skewed-degree workload: the sort dominates
  expand-sort-contract; the naive per-pair kernel diverges and uncoalesces;
  the hybrid kernel wins (§3.2-3.3).
- **Dense vs hash vs bloom row cache** (§3.3.2): dense is fastest when the
  dimensionality fits; bloom only pays off on compute-heavy semirings
  (the paper saw a marginal win on Jensen-Shannon only).
- **High-degree partitioning** (§3.3.3): partitioned rows add bounded extra
  blocks ("a miniscule amount of time ... on the Movielens dataset").
"""

import numpy as np

from repro.bench import bench_dataset, format_seconds, render_table, save_report
from repro.core.pairwise import pairwise_distances
from repro.errors import KernelLaunchError
from repro.gpusim.specs import VOLTA_V100
from repro.kernels import LoadBalancedCooKernel
from repro.kernels.strategy import max_entries_per_block, plan_partitions
from repro.testing import skewed_dense




def test_algorithm_ablation(benchmark):
    x = skewed_dense()

    def run():
        cells = {}
        for engine in ("expand_sort_contract", "naive_csr", "hybrid_coo"):
            try:
                cells[engine] = pairwise_distances(
                    x, metric="manhattan", engine=engine, return_result=True)
            except KernelLaunchError as exc:  # ESC can be unschedulable
                cells[engine] = exc
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for engine, res in cells.items():
        if isinstance(res, KernelLaunchError):
            rows.append([engine, "UNSCHEDULABLE", "-", "-", "-"])
        else:
            s = res.stats
            rows.append([engine, format_seconds(res.simulated_seconds),
                         f"{s.sort_steps:.3g}",
                         f"{s.divergent_branches:.3g}",
                         f"{s.coalescing_efficiency:.0%}"])
    report = render_table(
        ["engine", "simulated", "sort steps", "divergent", "coalesced"],
        rows, title="§3.2-3.3 — algorithm ablation (Manhattan, skewed degrees)")
    save_report("ablation_algorithms", report)

    hybrid = cells["hybrid_coo"]
    naive = cells["naive_csr"]
    assert hybrid.simulated_seconds < naive.simulated_seconds
    esc = cells["expand_sort_contract"]
    if not isinstance(esc, KernelLaunchError):
        # the sort dominates ESC's own arithmetic (§3.2.1)
        assert esc.stats.sort_steps > esc.stats.alu_ops
        assert hybrid.simulated_seconds < esc.simulated_seconds
    # §3.2.2 pathologies are visible in the counters
    assert naive.stats.divergent_branches > hybrid.stats.divergent_branches
    assert naive.stats.coalescing_efficiency \
        < hybrid.stats.coalescing_efficiency


def test_row_cache_ablation(benchmark):
    """Hash vs bloom (§3.3.2): the paper found bloom "marginally better ...
    on the Jensen-Shannon distance" only — i.e. bloom's extra traffic hides
    behind arithmetic on compute-heavy semirings, so its *relative* overhead
    must shrink from Manhattan to Jensen-Shannon."""
    x = np.abs(skewed_dense(192, 20_000, seed=7))  # too wide for dense

    def run():
        out = {}
        for metric in ("manhattan", "jensen_shannon"):
            for cache in ("hash", "bloom"):
                out[(metric, cache)] = pairwise_distances(
                    x, metric=metric, return_result=True,
                    engine=LoadBalancedCooKernel(VOLTA_V100,
                                                 row_cache=cache))
        return out

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[metric, cache, format_seconds(res.simulated_seconds)]
            for (metric, cache), res in cells.items()]
    report = render_table(
        ["distance", "row cache", "simulated"], rows,
        title="§3.3.2 — hash vs bloom row cache (k=20000)")
    save_report("ablation_row_cache", report)

    ratio_man = (cells[("manhattan", "bloom")].simulated_seconds
                 / cells[("manhattan", "hash")].simulated_seconds)
    ratio_js = (cells[("jensen_shannon", "bloom")].simulated_seconds
                / cells[("jensen_shannon", "hash")].simulated_seconds)
    # Compute-heavy ⊗ absorbs bloom's extra global traffic better — the
    # effect is *marginal*, exactly as the paper reports ("marginally
    # better performance on the Jensen-Shannon distance in one of our
    # benchmarks"), so the assertion is directional.
    assert ratio_js < ratio_man
    assert ratio_js < 3.0
    # The strategies must agree numerically regardless.
    for metric in ("manhattan", "jensen_shannon"):
        np.testing.assert_allclose(cells[(metric, "bloom")].distances,
                                   cells[(metric, "hash")].distances,
                                   atol=1e-9)


def test_two_pass_overhead(benchmark):
    """§3.3.1: a NAMM needs a second SPMV pass; on a self-join the streams
    are symmetric, so the union semiring should cost roughly — and at most
    — twice the intersection semiring, never more."""
    x = skewed_dense(256, 2048, seed=3)

    def run():
        one = pairwise_distances(x, metric="sqeuclidean",
                                 engine="hybrid_coo", return_result=True)
        two = pairwise_distances(x, metric="manhattan",
                                 engine="hybrid_coo", return_result=True)
        return one, two

    one, two = benchmark.pedantic(run, rounds=1, iterations=1)
    assert one.measure.n_passes == 1
    assert two.measure.n_passes == 2
    ratio = two.simulated_seconds / one.simulated_seconds
    report = (f"two-pass overhead (self-join, skewed degrees):\n"
              f"  sqeuclidean (1 pass): "
              f"{format_seconds(one.simulated_seconds)}\n"
              f"  manhattan   (2 pass): "
              f"{format_seconds(two.simulated_seconds)}\n"
              f"  ratio: {ratio:.2f}x (bounded by ~2x + expansion overhead)")
    save_report("ablation_two_pass", report)
    assert 1.0 < ratio < 2.6


def test_dense_cache_beats_hash_when_it_fits(benchmark):
    """§3.3.2: 'storing the vectors from A in dense form in shared memory
    [has] the highest throughput rate and least amount of thread
    divergence' — when the dimensionality fits the budget."""
    x = skewed_dense(256, 4096, seed=5)  # 4K dims: dense fits easily

    def run():
        out = {}
        for cache in ("dense", "hash"):
            out[cache] = pairwise_distances(
                x, metric="manhattan", return_result=True,
                engine=LoadBalancedCooKernel(VOLTA_V100, row_cache=cache))
        return out

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    report = render_table(
        ["row cache", "simulated"],
        [[c, format_seconds(r.simulated_seconds)] for c, r in cells.items()],
        title="§3.3.2 — dense vs hash row cache (k=4096, fits dense)")
    save_report("ablation_dense_vs_hash", report)
    assert (cells["dense"].simulated_seconds
            <= cells["hash"].simulated_seconds * 1.05)
    np.testing.assert_allclose(cells["dense"].distances,
                               cells["hash"].distances, atol=1e-9)


def test_block_sparse_tradeoff(benchmark):
    """§5.1: blocked formats schedule uniformly but "a conversion would be
    necessary" from CSR, and hyper-sparse neighborhood data pays a heavy
    tile-fill cost — the measured rationale for the paper staying with CSR."""
    from repro.sparse.bsr import BSRMatrix

    def run():
        rows = []
        for name in ("movielens", "scrna", "nytimes", "sec_edgar"):
            csr = bench_dataset(name).matrix
            # pad to a tile boundary (the conversion's own prerequisite)
            r = c = 8
            pad_rows = (-csr.n_rows) % r
            pad_cols_needed = (-csr.n_cols) % c
            from repro.sparse.csr import CSRMatrix
            padded = CSRMatrix(
                np.concatenate([csr.indptr,
                                np.full(pad_rows, csr.indptr[-1])]),
                csr.indices, csr.data,
                (csr.n_rows + pad_rows, csr.n_cols + pad_cols_needed),
                check=False, sort=False)
            bsr = BSRMatrix.from_csr(padded, (r, c))
            rows.append([name, f"{bsr.fill_ratio:.1%}",
                         f"{bsr.memory_nbytes() / max(1, csr.memory_nbytes()):.1f}x",
                         f"{np.unique(csr.row_degrees()).size}",
                         "1 (uniform)"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = render_table(
        ["dataset", "tile fill (8x8)", "memory vs CSR",
         "distinct CSR row degrees", "distinct tile sizes"],
        rows, title="§5.1 — block-sparse trade-off on neighborhood data")
    save_report("ablation_block_sparse", report)
    # hyper-sparse datasets fill tiles terribly -> memory blow-up
    by_name = {r[0]: r for r in rows}
    sec_fill = float(by_name["sec_edgar"][1].rstrip("%")) / 100
    rna_fill = float(by_name["scrna"][1].rstrip("%")) / 100
    assert sec_fill < 0.25          # tiles mostly zeros
    assert rna_fill > sec_fill      # denser data tiles better


def test_high_degree_partitioning_overhead(benchmark):
    """§3.3.3: splitting over-capacity rows costs bounded extra blocks."""
    ml = bench_dataset("movielens").matrix

    def run():
        max_entries = max_entries_per_block(VOLTA_V100)
        plan = plan_partitions(ml.row_degrees(), max_entries)
        return plan

    plan = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = plan.extra_blocks / max(1, ml.n_rows)
    report = (f"MovieLens partitioning: {plan.n_partitioned_rows} rows "
              f"split, {plan.extra_blocks} extra blocks "
              f"({overhead:.2%} block overhead)")
    save_report("ablation_partitioning", report)
    # "this strategy spent a miniscule amount of time in this step on the
    # Movielens dataset"
    assert overhead < 0.05
