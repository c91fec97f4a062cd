"""Replica routing, mid-batch failover bit-identity, and health probes.

The chaos contract: killing any one replica of a shard mid-batch must be
invisible in the delivered results — the sibling resumes the *same*
consumer from the *same* watermark over bit-identical prepared operands,
so the merged top-k equals the unsharded estimator's exactly. Only when
every replica of a shard is dead does the server degrade to the PR-4
partial-results path. CI's ``chaos`` job sweeps ``CHAOS_SEED`` over
which replica dies.
"""

import os

import numpy as np
import pytest

from repro.faults import FaultInjector, RecoveryPolicy, fatal_specs
from repro.neighbors import NearestNeighbors
from repro.obs import MetricsRegistry
from repro.serve import ReplicaRouter, Server, ShardedIndex
from repro.testing import DEFAULT_SEED, random_csr, seeded_rng, skewed_csr

K = 6

#: CI sweeps this over {0, ..., 4}; it seeds which replica dies.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


@pytest.fixture
def corpus():
    return skewed_csr(80, 30, seed=DEFAULT_SEED, scale=6, floor=1, cap=25)


@pytest.fixture
def queries():
    return random_csr(seeded_rng(DEFAULT_SEED + 1), 12, 30, 0.3)


def reference(corpus, queries, metric, k=K):
    nn = NearestNeighbors(n_neighbors=k, metric=metric).fit(corpus)
    return nn.kneighbors(queries, k)


def fatal_injector(*, tiles=None, seed=0):
    """An injector no retry/resume budget survives."""
    return FaultInjector(fatal_specs(tiles=tiles), seed=seed)


def victim_for(n_shards, n_replicas, seed=CHAOS_SEED):
    """The (shard, replica) the chaos seed kills — a pure function of
    the sweep coordinates, so every CI seed kills a different spot."""
    rng = np.random.default_rng([seed, n_shards, n_replicas])
    return (int(rng.integers(n_shards)), int(rng.integers(n_replicas)))


class TestRouter:
    def test_pick_least_loaded_tie_breaks_by_id(self):
        router = ReplicaRouter(n_shards=1, n_replicas=3)
        assert router.pick(0, 0.0).replica_id == 0
        router.occupy(router.replica(0, 0), 10.0)
        router.occupy(router.replica(0, 1), 4.0)
        assert router.pick(0, 0.0).replica_id == 2   # still free
        router.occupy(router.replica(0, 2), 4.0)
        assert router.pick(0, 0.0).replica_id == 1   # tie at 4.0 -> lower id

    def test_unhealthy_excluded_until_probe(self):
        router = ReplicaRouter(n_shards=1, n_replicas=2,
                               probe_backoff_ms=5.0)
        router.mark_unhealthy(router.replica(0, 0), 10.0)
        assert router.pick(0, 10.0).replica_id == 1
        # probe not yet eligible: nothing readmitted
        router.run_probes(0, 12.0)
        assert router.replica(0, 0).healthy is False
        router.run_probes(0, 15.0)
        state = router.replica(0, 0)
        assert state.healthy and state.n_readmissions == 1
        assert state.probe_at_ms is None
        assert [(p.at_ms, p.readmitted) for p in router.probe_log] \
            == [(15.0, True)]

    def test_failed_probe_backs_off_again(self):
        router = ReplicaRouter(n_shards=1, n_replicas=2,
                               probe_backoff_ms=5.0,
                               probe_success_rate=0.0)
        router.mark_unhealthy(router.replica(0, 0), 0.0)
        router.run_probes(0, 5.0)
        state = router.replica(0, 0)
        assert not state.healthy
        assert state.probe_at_ms == 10.0
        assert router.probe_log[-1].readmitted is False

    def test_pick_none_when_pool_dead(self):
        router = ReplicaRouter(n_shards=1, n_replicas=2,
                               probe_backoff_ms=50.0)
        router.mark_unhealthy(router.replica(0, 0), 0.0)
        router.mark_unhealthy(router.replica(0, 1), 0.0)
        assert router.pick(0, 1.0) is None
        assert router.n_unhealthy == 2

    def test_probe_sequence_is_seeded(self):
        outcomes = []
        for _ in range(2):
            router = ReplicaRouter(n_shards=2, n_replicas=2,
                                   probe_backoff_ms=1.0,
                                   probe_success_rate=0.5, probe_seed=3)
            for shard in (0, 1):
                router.mark_unhealthy(router.replica(shard, 0), 0.0)
            for tick in range(1, 8):
                for shard in (0, 1):
                    router.run_probes(shard, float(tick))
            outcomes.append([(p.shard_id, p.at_ms, p.readmitted)
                             for p in sorted(router.probe_log,
                                             key=lambda p: (p.shard_id,
                                                            p.at_ms))])
        assert outcomes[0] == outcomes[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="probe_backoff_ms"):
            ReplicaRouter(n_shards=1, n_replicas=1, probe_backoff_ms=0.0)
        with pytest.raises(ValueError, match="n_replicas"):
            ReplicaRouter(n_shards=1, n_replicas=0)
        with pytest.raises(ValueError, match="probe_success_rate"):
            ReplicaRouter(n_shards=1, n_replicas=1,
                          probe_success_rate=1.5)


class TestFailoverBitIdentity:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine",
                                        "manhattan"])
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("n_replicas", [2, 3])
    def test_killed_replica_is_invisible(self, corpus, queries, metric,
                                         n_shards, n_replicas):
        """Kill one replica mid-batch (it dies on its second tile, so a
        watermark > 0 is carried to the sibling): results must match the
        unsharded estimator bit for bit, with no partial degradation."""
        want_d, want_i = reference(corpus, queries, metric)
        index = ShardedIndex.build(corpus, metric=metric,
                                   n_shards=n_shards,
                                   placement="degree_balanced",
                                   batch_rows=8,
                                   n_replicas=n_replicas)
        shard_id, replica_id = victim_for(n_shards, n_replicas)
        assert index.shard_plan(
            shard_id, index.prepare_queries(queries)).n_tiles > 1
        metrics = MetricsRegistry()
        server = Server(
            index, max_batch_rows=64, max_wait_ms=10.0,
            fault_injectors={(shard_id, replica_id):
                             fatal_injector(tiles=(1,))},
            recovery=RecoveryPolicy(max_retries=1), max_shard_resumes=1,
            metrics=metrics)
        # nudge the siblings' occupancy so routing picks the seeded
        # victim for this batch (an idle pool tie-breaks to replica 0)
        for r in range(n_replicas):
            if r != replica_id:
                server.router.occupy(server.router.replica(shard_id, r),
                                     1e-3)
        future = server.submit(queries, K)
        server.drain()
        result = future.result()

        assert not result.partial
        np.testing.assert_array_equal(result.distances, want_d)
        np.testing.assert_array_equal(result.indices, want_i)
        shard_report = next(r for r in server.batch_reports[0].shard_reports
                            if r.shard_id == shard_id)
        assert shard_report.failed_replicas == (replica_id,)
        assert shard_report.replica_id != replica_id
        assert metrics.get("serve_replica_failures_total").value() == 1
        assert metrics.get("serve_failovers_total").value() == 1
        assert metrics.get("serve_shard_failures_total") is None
        assert server.router.n_unhealthy == 1

    def test_failover_accounting_reconciles(self, corpus, queries):
        """Replica-failure counters equal the per-shard report ledger."""
        index = ShardedIndex.build(corpus, n_shards=2, batch_rows=8,
                                   n_replicas=3)
        metrics = MetricsRegistry()
        server = Server(
            index, max_batch_rows=64, max_wait_ms=10.0,
            fault_injectors={(1, 0): fatal_injector(tiles=(1,)),
                             (1, 1): fatal_injector(tiles=(1,), seed=1)},
            recovery=RecoveryPolicy(max_retries=1), max_shard_resumes=1,
            metrics=metrics)
        future = server.submit(queries, K)
        server.drain()
        assert not future.result().partial

        reports = [r for b in server.batch_reports
                   for r in b.shard_reports]
        assert (metrics.get("serve_replica_failures_total").value()
                == sum(len(r.failed_replicas) for r in reports) == 2)
        assert (metrics.get("serve_failovers_total").value()
                == sum(1 for r in reports if r.failed_replicas
                       and not r.failed) == 1)
        shard1 = next(r for r in reports if r.shard_id == 1)
        assert shard1.failed_replicas == (0, 1)
        assert shard1.replica_id == 2
        # the fault log survives both failovers
        assert len(shard1.fault_log) > 0

    def test_all_replicas_dead_degrades_to_partial(self, corpus, queries):
        """With the whole pool gone the shard drops out exactly as the
        replica-less server did: partial results from the survivors."""
        index = ShardedIndex.build(corpus, n_shards=2, n_replicas=2)
        metrics = MetricsRegistry()
        server = Server(
            index, max_batch_rows=64, max_wait_ms=10.0,
            fault_injectors={(1, 0): fatal_injector(),
                             (1, 1): fatal_injector(seed=1)},
            recovery=RecoveryPolicy(max_retries=1), max_shard_resumes=1,
            metrics=metrics)
        future = server.submit(queries, K)
        server.drain()
        result = future.result()

        assert result.partial
        assert result.report.batch.failed_shards == (1,)
        survivors = set(index.shards[0].global_ids.tolist())
        assert all(int(i) in survivors for i in result.indices.ravel())
        sub = corpus.take_rows(index.shards[0].global_ids)
        nn = NearestNeighbors(n_neighbors=K, metric="euclidean").fit(sub)
        want_d, want_local = nn.kneighbors(queries, K)
        np.testing.assert_array_equal(result.distances, want_d)
        np.testing.assert_array_equal(
            result.indices, index.shards[0].global_ids[want_local])
        assert metrics.get("serve_shard_failures_total").value() == 1
        assert metrics.get("serve_replica_failures_total").value() == 2
        shard1 = next(r for r in server.batch_reports[0].shard_reports
                      if r.shard_id == 1)
        assert shard1.failed and shard1.replica_id == -1


class TestProbeReadmission:
    def test_replica_rejoins_after_backoff(self, corpus, queries):
        """A replica killed by batch 1 is probed back in before batch 2
        and serves it (lowest free_ms wins after its sibling absorbed
        batch 1's occupancy)."""
        index = ShardedIndex.build(corpus, n_shards=1, n_replicas=2)
        metrics = MetricsRegistry()
        server = Server(
            index, max_batch_rows=12, max_wait_ms=0.5,
            fault_injectors={(0, 0): fatal_injector()},
            recovery=RecoveryPolicy(max_retries=1), max_shard_resumes=0,
            probe_backoff_ms=2.0, metrics=metrics)
        f1 = server.submit(queries.slice_rows(0, 6), K, arrival_ms=0.0)
        server.drain()
        assert server.router.replica(0, 0).healthy is False

        # keep the healthy sibling busy past the next arrival so the
        # readmitted replica (free at its probe instant) wins routing
        server.router.occupy(server.router.replica(0, 1), 60.0)
        f2 = server.submit(queries.slice_rows(6, 12), K, arrival_ms=50.0)
        server.drain()
        state = server.router.replica(0, 0)
        assert state.n_readmissions == 1
        assert [p.readmitted for p in server.router.probe_log] == [True]
        # the probed-back replica won routing for batch 2... but its
        # injector kills it again, so the sibling finishes the batch
        # and the replica is back in the penalty box
        assert state.healthy is False and state.n_failures == 2
        assert state.probe_at_ms == 52.0
        second = server.batch_reports[1].shard_reports[0]
        assert second.failed_replicas == (0,)
        assert second.replica_id == 1
        assert not f1.result().partial and not f2.result().partial
        assert metrics.get("serve_replica_failures_total").value() == 2

    def test_no_probe_before_backoff(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=1, n_replicas=2)
        server = Server(
            index, max_batch_rows=12, max_wait_ms=0.5,
            fault_injectors={(0, 0): fatal_injector()},
            recovery=RecoveryPolicy(max_retries=1), max_shard_resumes=0,
            probe_backoff_ms=1e6)
        server.submit(queries.slice_rows(0, 6), K, arrival_ms=0.0)
        server.drain()
        server.submit(queries.slice_rows(6, 12), K, arrival_ms=50.0)
        server.drain()
        assert server.router.replica(0, 0).healthy is False
        assert server.router.probe_log == []

    def test_single_replica_matches_legacy_occupancy(self, corpus,
                                                     queries):
        """``n_replicas=1`` must reproduce the replica-less latency
        model exactly: same batch start/completion instants."""
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=4, max_wait_ms=1.0)
        for r in range(queries.n_rows):
            server.submit(queries.slice_rows(r, r + 1), K,
                          arrival_ms=r * 0.3)
        server.drain()
        starts = [b.start_ms for b in server.batch_reports]
        # serialized device: each batch starts at max(dispatch, previous
        # completion), so starts are strictly increasing and never
        # before the previous completion
        for prev, batch in zip(server.batch_reports,
                               server.batch_reports[1:]):
            assert batch.start_ms >= prev.completion_ms
            assert batch.start_ms >= batch.dispatch_ms
        assert starts == sorted(starts)
