"""End-to-end workflow tests combining multiple subsystems."""

import numpy as np
import pytest

from repro import NearestNeighbors, pairwise_distances
from repro.datasets import TfidfVectorizer, generate_documents
from repro.kernels import LoadBalancedCooKernel, RowCacheStrategy
from repro.neighbors import KNeighborsClassifier, knn_graph, symmetrize
from repro.sparse import CSRMatrix
from tests.conftest import random_csr, random_dense


class TestUmapPrepPipeline:
    """raw counts → l1-normalized rows → kNN graph → symmetric graph."""

    def test_full_chain(self, rng):
        dense_counts = np.round(np.abs(random_dense(rng, 40, 60, 0.3)) * 4)
        counts = CSRMatrix.from_dense(dense_counts)
        sums = dense_counts.sum(axis=1, keepdims=True)
        probs = CSRMatrix.from_dense(np.divide(
            dense_counts, sums, out=np.zeros_like(dense_counts),
            where=sums > 0))

        graph = knn_graph(counts, n_neighbors=5, metric="cosine",
                          symmetric=True, engine="host")
        assert graph.shape == (40, 40)
        dense = graph.to_dense()
        np.testing.assert_allclose(dense, np.maximum(dense, dense.T))

        js_graph = knn_graph(probs, n_neighbors=5, metric="jensen_shannon",
                             engine="host")
        assert js_graph.row_degrees().max() == 5

    def test_symmetrize_preserves_reachability(self, rng):
        x = random_dense(rng, 25, 10)
        directed = knn_graph(x, n_neighbors=3, engine="host")
        edges = symmetrize(directed).to_dense() != 0
        one_way = directed.to_dense() != 0
        # undirected: every edge is there in both directions, and the
        # edge set is exactly the union of both directions of the input
        np.testing.assert_array_equal(edges, edges.T)
        np.testing.assert_array_equal(edges, one_way | one_way.T)


class TestTextPipeline:
    def test_vectorize_classify(self):
        texts, labels = generate_documents(120, seed=9)
        labels = np.asarray(labels)
        v = TfidfVectorizer(min_df=2)
        x = v.fit_transform(texts[:90])
        q = v.transform(texts[90:])
        clf = KNeighborsClassifier(n_neighbors=5, metric="cosine",
                                   engine="host")
        clf.fit(x, labels[:90])
        assert clf.score(q, labels[90:]) > 0.7


class TestKernelDiagnostics:
    def test_pass_profiles_exposed(self, rng):
        kernel = LoadBalancedCooKernel(row_cache="hash")
        x = random_csr(rng, 12, 30)
        pairwise_distances(x, metric="manhattan", engine=kernel)
        assert len(kernel.last_profiles) == 2  # two NAMM passes
        for prof in kernel.last_profiles:
            assert prof.strategy is RowCacheStrategy.HASH
            assert prof.n_blocks >= 12
            assert 0.0 <= prof.hit_rate <= 1.0

    def test_profiles_reset_between_runs(self, rng):
        kernel = LoadBalancedCooKernel()
        x = random_csr(rng, 8, 20)
        pairwise_distances(x, metric="manhattan", engine=kernel)
        pairwise_distances(x, metric="cosine", engine=kernel)
        assert len(kernel.last_profiles) == 1  # single annihilating pass


class TestDeviceConsistency:
    """Numerics are device-independent; only schedules differ."""

    @pytest.mark.parametrize("metric", ["cosine", "manhattan",
                                        "jensen_shannon"])
    def test_volta_ampere_identical_numbers(self, rng, metric):
        x = np.abs(random_dense(rng, 15, 25, 0.4))
        dv = pairwise_distances(x, metric=metric, device="volta")
        da = pairwise_distances(x, metric=metric, device="ampere")
        np.testing.assert_array_equal(dv, da)

    def test_knn_identical_across_engines(self, rng):
        x = random_dense(rng, 25, 15)
        results = []
        for engine in ("host", "hybrid_coo", "naive_csr"):
            nn = NearestNeighbors(n_neighbors=4, metric="canberra",
                                  engine=engine).fit(x)
            results.append(nn.kneighbors())
        for dist, idx in results[1:]:
            np.testing.assert_allclose(dist, results[0][0], atol=1e-9)
            np.testing.assert_array_equal(idx, results[0][1])
