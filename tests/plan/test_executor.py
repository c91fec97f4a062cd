"""Plan execution: determinism, tiling exactness, consumers, satellites."""

import sys
import threading

import numpy as np
import pytest

from repro.core.pairwise import pairwise_distances
from repro.errors import DeviceConfigError, ExecutionFaultError
from repro.faults import FaultInjector, FaultSpec, RecoveryPolicy
from repro.gpusim.specs import AMPERE_A100, VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.kernels import functional, make_engine
from repro.neighbors.brute_force import NearestNeighbors
from repro.neighbors.topk import select_topk
from repro.plan import (
    CallbackConsumer,
    DenseBlockConsumer,
    PlanExecutor,
    TileConsumer,
    TopKConsumer,
    build_pairwise_plan,
)
from repro.plan.consumers import TileSink
from tests.conftest import random_csr, random_dense

#: Small enough to force several tiles on the fixture matrices while still
#: fitting a 1x1 tile plus per-row workspace.
TINY_BUDGET = 600


class TestTiledMatchesMonolithic:
    """Acceptance criterion: the tiled plan is bit-identical to the
    monolithic full-block path, across both distance families."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "correlation",
                                        "manhattan", "chebyshev"])
    def test_mixed_sign_metrics(self, small_pair, metric):
        a, b = small_pair
        mono = pairwise_distances(a, b, metric)
        tiled = pairwise_distances(a, b, metric,
                                   memory_budget_bytes=TINY_BUDGET,
                                   return_result=True)
        assert tiled.report.n_tiles > 1
        assert np.array_equal(mono, tiled.distances)

    @pytest.mark.parametrize("metric", ["hellinger", "jensen_shannon",
                                        "kl_divergence"])
    def test_positive_metrics(self, positive_pair, metric):
        a, b = positive_pair
        mono = pairwise_distances(a, b, metric)
        tiled = pairwise_distances(a, b, metric,
                                   memory_budget_bytes=TINY_BUDGET)
        assert np.array_equal(mono, tiled)

    def test_self_join(self, rng):
        x = random_csr(rng, 19, 16)
        mono = pairwise_distances(x, metric="cosine")
        tiled = pairwise_distances(x, metric="cosine",
                                   memory_budget_bytes=TINY_BUDGET)
        assert np.array_equal(mono, tiled)

    @pytest.mark.xfail(strict=True, reason=(
        "a chunk boundary inside a row splits that row's + sum, and where "
        "it falls moves with the tile grid once a tile streams more than "
        "_CHUNK_ELEMENTS co-occurrences"))
    def test_self_join_past_one_chunk(self, monkeypatch):
        monkeypatch.setattr(functional, "_CHUNK_ELEMENTS", 16)
        x = random_csr(np.random.default_rng(0), 24, 16, 0.6)
        mono = pairwise_distances(x, metric="cosine")
        tiled = pairwise_distances(x, metric="cosine",
                                   memory_budget_bytes=TINY_BUDGET)
        assert np.array_equal(mono, tiled)


class TestWorkerDeterminism:
    """Acceptance criterion: serial and 4-worker executions are
    bit-identical — distances, indices, and merged stats."""

    def test_pairwise_serial_vs_workers(self, small_pair):
        a, b = small_pair
        serial = pairwise_distances(a, b, "cosine", return_result=True,
                                    memory_budget_bytes=TINY_BUDGET)
        threaded = pairwise_distances(a, b, "cosine", return_result=True,
                                      memory_budget_bytes=TINY_BUDGET,
                                      n_workers=4)
        assert serial.report.n_tiles > 1
        assert np.array_equal(serial.distances, threaded.distances)
        assert serial.stats.as_dict() == threaded.stats.as_dict()

    def test_kneighbors_serial_vs_workers(self, rng):
        x = random_dense(rng, 24, 10)
        runs = []
        for n_workers in (1, 4):
            nn = NearestNeighbors(n_neighbors=3, metric="manhattan",
                                  batch_rows=5, n_workers=n_workers).fit(x)
            runs.append(nn.kneighbors() + (nn.last_report,))
        (d1, i1, r1), (d2, i2, r2) = runs
        assert r1.n_batches > 1
        assert np.array_equal(d1, d2)
        assert np.array_equal(i1, i2)
        assert r1.stats.as_dict() == r2.stats.as_dict()
        assert r1.n_batches == r2.n_batches

    def test_makespan_not_longer_than_serial(self, small_pair):
        a, b = small_pair
        res = pairwise_distances(a, b, "cosine", return_result=True,
                                 memory_budget_bytes=TINY_BUDGET, n_workers=4)
        assert res.report.simulated_seconds <= res.report.serial_seconds
        assert res.report.n_workers == 4


class TestBandedTopK:
    """k-NN selects each row band's k best inside its tile and merges the
    tiles' picks at delivery; that must equal selecting over the dense
    matrix, bit for bit, ties included, however the tiles were run."""

    K = 4

    @pytest.fixture(autouse=True)
    def small_bands(self, monkeypatch):
        # 24 cells: 3 rows of a 7-column tile per band.
        monkeypatch.setattr(functional, "_BAND_CELLS", 24)

    @staticmethod
    def _binary(rng):
        return (rng.random((30, 12)) < 0.3).astype(float)  # many ties

    def _assert_equals_dense(self, x, metric, dist, idx):
        want_dist, want_idx = select_topk(
            pairwise_distances(x, metric=metric), self.K)
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("metric", ["manhattan", "cosine", "chebyshev"])
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_kneighbors_equals_select_over_dense(self, rng, metric,
                                                 n_workers):
        x = self._binary(rng)
        nn = NearestNeighbors(n_neighbors=self.K, metric=metric,
                              batch_rows=7, n_workers=n_workers).fit(x)
        dist, idx = nn.kneighbors()
        assert nn.last_report.n_batches == 5
        self._assert_equals_dense(x, metric, dist, idx)

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_cosine_with_all_zero_rows(self, rng, n_workers):
        """The in-place cosine expansion keeps d = 0 between empty rows
        (and 1 to the others) in every band, on every worker."""
        x = self._binary(rng)
        empty = [1, 2, 4, 13, 14, 22, 29]
        x[empty] = 0.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' bands
        try:
            nn = NearestNeighbors(n_neighbors=self.K, metric="cosine",
                                  batch_rows=7, n_workers=n_workers).fit(x)
            dist, idx = nn.kneighbors()
        finally:
            sys.setswitchinterval(interval)
        self._assert_equals_dense(x, "cosine", dist, idx)
        assert np.array_equal(dist[empty], np.zeros((len(empty), self.K)))
        assert np.array_equal(idx[empty], np.tile(empty[:self.K],
                                                  (len(empty), 1)))

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_absorbed_oom_split(self, rng, n_workers):
        x = self._binary(rng)
        nn = NearestNeighbors(
            n_neighbors=self.K, metric="manhattan", batch_rows=7,
            n_workers=n_workers, recovery=RecoveryPolicy(),
            fault_injector=FaultInjector([FaultSpec("oom", tiles=(1,))],
                                         seed=0)).fit(x)
        dist, idx = nn.kneighbors()
        assert nn.last_report.n_tile_splits == 1
        self._assert_equals_dense(x, "manhattan", dist, idx)

    def test_resume_after_abort(self, rng):
        x = self._binary(rng)

        def plan():
            return build_pairwise_plan(x, None, "manhattan",
                                       max_tile_rows_b=7)

        consumer = TopKConsumer(self.K)
        injector = FaultInjector(
            [FaultSpec("stuck", tiles=(3,), attempts=tuple(range(10)))],
            seed=0)
        with pytest.raises(ExecutionFaultError) as exc_info:
            PlanExecutor(plan(), n_workers=4,
                         recovery=RecoveryPolicy(max_retries=1),
                         fault_injector=injector).execute(consumer)
        assert exc_info.value.watermark == 3
        dist, idx = PlanExecutor(plan()).execute(
            consumer, resume_from=exc_info.value.watermark).value
        self._assert_equals_dense(x, "manhattan", dist, idx)


class _KeepBands(TileSink):
    """Keeps every band it is handed, not a copy."""

    def __init__(self, kept):
        self._kept = kept

    def __call__(self, r0, r1, rows):
        self._kept.append(rows)

    def payload(self):
        return None


class _BandRecorder(TileConsumer):
    def __init__(self):
        self.bands = []

    def tile_sink(self, tile):
        return _KeepBands(self.bands)

    def consume(self, tile, payload):
        pass


class TestBandWorkspace:
    """A thread builds every band it computes in one reused buffer, so a
    band is valid only until its sink returns; another thread has its
    own buffer."""

    @pytest.fixture(autouse=True)
    def small_bands(self, monkeypatch):
        monkeypatch.setattr(functional, "_BAND_CELLS", 24)

    def test_bands_and_tiles_reuse_one_buffer_per_thread(self, rng):
        x = (rng.random((30, 12)) < 0.3).astype(float)
        plan = build_pairwise_plan(x, None, "cosine", max_tile_rows_b=7)
        here = _BandRecorder()
        PlanExecutor(plan).execute(here)
        assert plan.grid.n_tiles > 1
        assert len(here.bands) > plan.grid.n_tiles
        assert all(np.shares_memory(band, here.bands[0])
                   for band in here.bands)

        there = _BandRecorder()
        worker = threading.Thread(target=PlanExecutor(plan).execute,
                                  args=(there,))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(there.bands) == len(here.bands)
        assert all(np.shares_memory(band, there.bands[0])
                   for band in there.bands)
        assert not any(np.shares_memory(band, here.bands[0])
                       for band in there.bands)


class TestConsumers:
    def test_topk_matches_select_topk(self, small_pair):
        a, b = small_pair
        plan = build_pairwise_plan(a, b, "euclidean",
                                   memory_budget_bytes=TINY_BUDGET)
        report = PlanExecutor(plan).execute(TopKConsumer(4))
        dist, idx = report.value
        full = pairwise_distances(a, b, "euclidean")
        want_dist, want_idx = select_topk(full, 4)
        np.testing.assert_allclose(dist, want_dist)
        np.testing.assert_array_equal(idx, want_idx)

    def test_topk_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="positive"):
            TopKConsumer(0)
        with pytest.raises(ValueError, match="positive"):
            TopKConsumer(-2)

    def test_callback_receives_tiles_in_order(self, small_pair):
        a, b = small_pair
        plan = build_pairwise_plan(a, b, "cosine",
                                   memory_budget_bytes=TINY_BUDGET)
        seen = []
        PlanExecutor(plan, n_workers=4).execute(
            CallbackConsumer(lambda tile, block: seen.append(
                (tile.index, block.shape))))
        assert [i for i, _ in seen] == list(range(plan.n_tiles))
        assert all(shape == (t.rows_a, t.rows_b)
                   for (_, shape), t in zip(seen, plan.grid.tiles()))

    def test_default_consumer_is_dense_block(self, small_pair):
        a, b = small_pair
        plan = build_pairwise_plan(a, b, "cosine")
        report = PlanExecutor(plan).execute()
        assert report.value.shape == (a.n_rows, b.n_rows)

    def test_dense_block_empty_operand(self, rng):
        a = random_csr(rng, 0, 8)
        b = random_csr(rng, 5, 8)
        plan = build_pairwise_plan(a, b, "cosine")
        report = PlanExecutor(plan).execute(DenseBlockConsumer())
        assert report.value.shape == (0, 5)
        assert report.n_tiles == 0
        assert report.simulated_seconds == 0.0


class TestExecutorAccounting:
    def test_tiled_peak_below_monolithic(self, rng):
        x = random_csr(rng, 30, 12)
        plan = build_pairwise_plan(x, None, "cosine",
                                   memory_budget_bytes=TINY_BUDGET)
        report = PlanExecutor(plan).execute(DenseBlockConsumer())
        assert report.n_tiles > 1
        assert report.peak_resident_bytes < plan.monolithic_bytes

    def test_invalid_n_workers(self, small_pair):
        a, b = small_pair
        plan = build_pairwise_plan(a, b, "cosine")
        with pytest.raises(ValueError):
            PlanExecutor(plan, n_workers=0)

    def test_host_engine_prices_nothing(self, small_pair):
        a, b = small_pair
        res = pairwise_distances(a, b, "cosine", engine="host",
                                 return_result=True,
                                 memory_budget_bytes=TINY_BUDGET)
        assert res.simulated_seconds == 0.0

    def test_kernel_instance_keeps_profiles(self, small_pair):
        a, b = small_pair
        kernel = make_engine("hybrid_coo", VOLTA_V100)
        pairwise_distances(a, b, "cosine", engine=kernel,
                           memory_budget_bytes=TINY_BUDGET)
        assert kernel.last_profiles


class TestSatellites:
    def test_device_mismatch_raises(self, small_pair):
        a, b = small_pair
        kernel = make_engine("hybrid_coo", VOLTA_V100)
        with pytest.raises(DeviceConfigError, match="volta"):
            pairwise_distances(a, b, "cosine", engine=kernel,
                               device=AMPERE_A100)
        with pytest.raises(DeviceConfigError):
            pairwise_distances(a, b, "cosine", engine=kernel,
                               device="ampere")

    def test_matching_device_accepted(self, small_pair):
        a, b = small_pair
        kernel = make_engine("hybrid_coo", VOLTA_V100)
        out = pairwise_distances(a, b, "cosine", engine=kernel,
                                 device=VOLTA_V100)
        assert out.shape == (a.n_rows, b.n_rows)

    def test_kneighbors_rejects_nonpositive_k(self, rng):
        nn = NearestNeighbors(n_neighbors=3).fit(random_dense(rng, 6, 4))
        with pytest.raises(ValueError, match="positive"):
            nn.kneighbors(n_neighbors=0)
        with pytest.raises(ValueError, match="positive"):
            nn.kneighbors(n_neighbors=-1)

    def test_stats_copy_is_independent(self):
        stats = KernelStats(alu_ops=3.0)
        dup = stats.copy()
        dup.merge(KernelStats(alu_ops=4.0))
        assert stats.alu_ops == 3.0
        assert dup.alu_ops == 7.0
