"""NearestNeighbors estimator tests (the paper's Figure-2 API, end to end)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.reference import pairwise_reference
from repro.datasets import load_dataset
from repro.errors import ReproError
from repro.neighbors.brute_force import NearestNeighbors
from repro.neighbors.topk import select_topk
from tests.conftest import random_csr, random_dense


class TestBasic:
    def test_fit_returns_self(self, rng):
        nn = NearestNeighbors(n_neighbors=3)
        assert nn.fit(random_dense(rng, 5, 4)) is nn

    def test_unfitted_raises(self):
        with pytest.raises(ReproError, match="fit"):
            NearestNeighbors().kneighbors()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            NearestNeighbors(n_neighbors=0)

    def test_self_query_shape(self, rng):
        x = random_dense(rng, 12, 8)
        nn = NearestNeighbors(n_neighbors=4, metric="cosine").fit(x)
        dist, idx = nn.kneighbors()
        assert dist.shape == idx.shape == (12, 4)

    def test_return_distance_false(self, rng):
        x = random_dense(rng, 6, 5)
        idx = NearestNeighbors(n_neighbors=2).fit(x).kneighbors(
            return_distance=False)
        assert idx.shape == (6, 2)
        assert idx.dtype == np.int64

    def test_k_clamped_to_index_size(self, rng):
        x = random_dense(rng, 4, 5)
        dist, _ = NearestNeighbors(n_neighbors=10).fit(x).kneighbors()
        assert dist.shape == (4, 4)


class TestCorrectness:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine",
                                        "chebyshev"])
    def test_matches_reference_topk(self, rng, metric):
        x = random_dense(rng, 20, 12)
        q = random_dense(rng, 7, 12)
        nn = NearestNeighbors(n_neighbors=5, metric=metric).fit(x)
        dist, idx = nn.kneighbors(q)
        ref = pairwise_reference(q, x, metric)
        want_dist, want_idx = select_topk(ref, 5)
        np.testing.assert_allclose(dist, want_dist, atol=1e-9)
        np.testing.assert_array_equal(idx, want_idx)

    def test_self_is_nearest_under_metric(self, rng):
        x = random_dense(rng, 15, 9)
        nn = NearestNeighbors(n_neighbors=1, metric="euclidean").fit(x)
        _, idx = nn.kneighbors()
        np.testing.assert_array_equal(idx[:, 0], np.arange(15))

    def test_batching_invariance(self, rng):
        """Batch size must not change results (the §4.2 batched path)."""
        x = random_dense(rng, 30, 10)
        big = NearestNeighbors(n_neighbors=4, metric="manhattan",
                               batch_rows=1000).fit(x)
        small = NearestNeighbors(n_neighbors=4, metric="manhattan",
                                 batch_rows=7).fit(x)
        d1, i1 = big.kneighbors()
        d2, i2 = small.kneighbors()
        np.testing.assert_allclose(d1, d2, atol=1e-12)
        np.testing.assert_array_equal(i1, i2)

    def test_metric_params(self, rng):
        x = random_dense(rng, 10, 6)
        nn = NearestNeighbors(n_neighbors=3, metric="minkowski",
                              metric_params={"p": 1.0}).fit(x)
        d_mink, _ = nn.kneighbors()
        d_man, _ = NearestNeighbors(n_neighbors=3,
                                    metric="manhattan").fit(x).kneighbors()
        np.testing.assert_allclose(d_mink, d_man, atol=1e-9)

    def test_sparse_input(self, rng):
        x = random_csr(rng, 18, 11)
        nn = NearestNeighbors(n_neighbors=3, metric="jaccard").fit(x)
        dist, idx = nn.kneighbors()
        ref = pairwise_reference(x.to_dense(), x.to_dense(), "jaccard")
        want_dist, want_idx = select_topk(ref, 3)
        np.testing.assert_allclose(dist, want_dist, atol=1e-9)
        np.testing.assert_array_equal(idx, want_idx)

    def test_hellinger_transform_applied_once(self, rng):
        """fit + batched kneighbors must not double-apply the sqrt
        pre-transform."""
        x = random_dense(rng, 12, 8, positive=True)
        nn = NearestNeighbors(n_neighbors=3, metric="hellinger",
                              batch_rows=5).fit(x)
        dist, idx = nn.kneighbors()
        ref = pairwise_reference(x, x, "hellinger")
        want_dist, want_idx = select_topk(ref, 3)
        np.testing.assert_allclose(dist, want_dist, atol=1e-9)


class TestReporting:
    def test_query_report(self, rng):
        x = random_dense(rng, 20, 8)
        nn = NearestNeighbors(n_neighbors=2, metric="manhattan",
                              batch_rows=6).fit(x)
        nn.kneighbors()
        rep = nn.last_report
        assert rep.n_batches == 4  # ceil(20 / 6)
        assert rep.simulated_seconds > 0
        assert rep.stats.kernel_launches >= rep.n_batches

    def test_host_engine_zero_simulated(self, rng):
        x = random_dense(rng, 8, 5)
        nn = NearestNeighbors(n_neighbors=2, engine="host").fit(x)
        nn.kneighbors()
        assert nn.last_report.simulated_seconds == 0.0


class TestGraph:
    def test_kneighbors_graph_connectivity(self, rng):
        x = random_dense(rng, 10, 6)
        nn = NearestNeighbors(n_neighbors=3).fit(x)
        g = nn.kneighbors_graph()
        assert g.shape == (10, 10)
        np.testing.assert_array_equal(g.row_degrees(), 3)
        assert set(np.unique(g.data)) == {1.0}

    def test_kneighbors_graph_distance_mode(self, rng):
        x = random_dense(rng, 8, 6)
        nn = NearestNeighbors(n_neighbors=2, metric="manhattan").fit(x)
        g = nn.kneighbors_graph(mode="distance")
        dist, idx = nn.kneighbors()
        # self edge (distance 0) is pruned by the CSR zero-dropping? No:
        # CSRMatrix keeps explicit values; check stored entries match.
        assert g.nnz <= 16
        assert g.shape == (8, 8)

    def test_invalid_mode(self, rng):
        nn = NearestNeighbors(n_neighbors=2).fit(random_dense(rng, 5, 4))
        with pytest.raises(ValueError):
            nn.kneighbors_graph(mode="fuzzy")


class TestPreparedOperands:
    """The fitted-state preparation shared with the serving layer."""

    def test_cached_across_queries(self, rng):
        nn = NearestNeighbors(n_neighbors=3, metric="euclidean")
        nn.fit(random_csr(rng, 20, 10, 0.4))
        first = nn.prepared_operands()
        assert nn.prepared_operands() is first     # no re-preparation
        nn.kneighbors(random_csr(rng, 5, 10, 0.4), 3)
        assert nn.prepared_operands() is first     # queries don't evict it

    def test_refit_invalidates(self, rng):
        nn = NearestNeighbors(n_neighbors=3)
        nn.fit(random_csr(rng, 12, 8, 0.4))
        first = nn.prepared_operands()
        nn.fit(random_csr(rng, 12, 8, 0.4))
        assert nn.prepared_operands() is not first

    def test_norms_cached_for_expanded_measures(self, rng):
        nn = NearestNeighbors(n_neighbors=3, metric="cosine")
        nn.fit(random_csr(rng, 15, 9, 0.5))
        prepared = nn.prepared_operands()
        assert prepared.norms                       # expansion norms cached
        assert prepared.measure_name == "cosine"

    def test_unfitted_rejected(self):
        with pytest.raises(ReproError):
            NearestNeighbors(n_neighbors=2).prepared_operands()

    def test_take_rows_slices_norms(self, rng):
        nn = NearestNeighbors(n_neighbors=3, metric="euclidean")
        nn.fit(random_csr(rng, 18, 7, 0.5))
        prepared = nn.prepared_operands()
        rows = np.array([4, 9, 16])
        sliced = prepared.take_rows(rows)
        assert sliced.n_rows == 3
        for kind, values in prepared.norms.items():
            np.testing.assert_array_equal(sliced.norms[kind], values[rows])


class TestBandReuse:
    """A fitted estimator's self-join plans cut its operand into the same
    B bands on every call, and stream the same band objects, so the hybrid
    kernel's stream-cost census runs on the first call only."""

    def test_warm_self_join_recounts_no_stream_costs(self, monkeypatch):
        from repro.kernels import coo_spmv

        calls = []
        for name in ("_sample_bank_conflicts", "_atomics_per_block"):
            def count(streamed, spec, name=name,
                      original=getattr(coo_spmv, name)):
                calls.append(name)
                return original(streamed, spec)

            monkeypatch.setattr(coo_spmv, name, count)
        # The e2e knn-topk workload: two 4422x2211 tiles per call.
        x = load_dataset("movielens", scale=64, seed=0).matrix
        nn = NearestNeighbors(n_neighbors=10, metric="manhattan",
                              engine="hybrid_coo").fit(x)
        cold = nn.kneighbors()
        assert nn.last_report.n_batches == 2
        assert set(calls) == {"_atomics_per_block", "_sample_bank_conflicts"}
        calls.clear()
        warm = nn.kneighbors()
        assert calls == []
        for got, want in zip(warm, cold):
            np.testing.assert_array_equal(got, want)


class TestMemory:
    """The k-NN path holds one row band of distances at a time, never a
    whole tile (paper §4.2: the dense block need not fit in memory)."""

    @pytest.mark.parametrize("metric", ["manhattan", "cosine"])
    def test_self_join_peak_below_quarter_block(self, metric):
        x = load_dataset("movielens", scale=128).matrix  # 2211 rows: 1 tile
        nn = NearestNeighbors(n_neighbors=10, metric=metric).fit(x)
        nn.prepared_operands()
        tracemalloc.start()
        try:
            nn.kneighbors()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nn.last_report.n_batches == 1
        assert peak < x.n_rows * x.n_rows * 8 / 4
