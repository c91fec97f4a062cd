"""Server: coalesced execution, latency model, fault degradation, obs."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultKind, FaultSpec, RecoveryPolicy
from repro.neighbors import NearestNeighbors
from repro.obs import MetricsRegistry, Tracer
from repro.serve import Server, ShardedIndex, ShardFailedError
from repro.testing import DEFAULT_SEED, random_csr, seeded_rng, skewed_csr

K = 6


@pytest.fixture
def corpus():
    return skewed_csr(80, 30, seed=DEFAULT_SEED, scale=6, floor=1, cap=25)


@pytest.fixture
def queries():
    return random_csr(seeded_rng(DEFAULT_SEED + 1), 12, 30, 0.3)


def reference(corpus, queries, metric="euclidean", k=K):
    nn = NearestNeighbors(n_neighbors=k, metric=metric).fit(corpus)
    return nn.kneighbors(queries, k)


def submit_rows(server, queries, k=K, gap_ms=0.5, **kwargs):
    """One request per query row, arriving every ``gap_ms``."""
    return [server.submit(queries.slice_rows(r, r + 1), k,
                          arrival_ms=r * gap_ms, **kwargs)
            for r in range(queries.n_rows)]


ALWAYS = tuple(range(64))


def stuck_injector(seed=0):
    return FaultInjector([FaultSpec(FaultKind.STUCK, attempts=ALWAYS)],
                         seed=seed)


class TestCoalescedResults:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "manhattan"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_bit_identical_to_estimator(self, corpus, queries, metric,
                                        n_shards, n_workers):
        want_d, want_i = reference(corpus, queries, metric)
        index = ShardedIndex.build(corpus, metric=metric,
                                   n_shards=n_shards,
                                   placement="degree_balanced")
        server = Server(index, max_batch_rows=5, max_wait_ms=2.0,
                        n_workers=n_workers)
        futures = submit_rows(server, queries)
        server.drain()
        for r, future in enumerate(futures):
            result = future.result()
            assert not result.partial
            np.testing.assert_array_equal(result.distances,
                                          want_d[r:r + 1])
            np.testing.assert_array_equal(result.indices, want_i[r:r + 1])

    def test_multi_row_requests(self, corpus, queries):
        want_d, want_i = reference(corpus, queries, "cosine")
        index = ShardedIndex.build(corpus, metric="cosine", n_shards=3)
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0)
        f1 = server.submit(queries.slice_rows(0, 5), K, arrival_ms=0.0)
        f2 = server.submit(queries.slice_rows(5, 12), K, arrival_ms=1.0)
        server.drain()
        np.testing.assert_array_equal(f1.result().distances, want_d[:5])
        np.testing.assert_array_equal(f2.result().indices, want_i[5:])

    def test_mixed_k_within_batch(self, corpus, queries):
        """Coalesced requests with different k each get their own width."""
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0)
        f_small = server.submit(queries.slice_rows(0, 2), 3, arrival_ms=0.0)
        f_large = server.submit(queries.slice_rows(2, 4), 9, arrival_ms=0.0)
        server.drain()
        want_d, want_i = reference(corpus, queries, k=9)
        r_small, r_large = f_small.result(), f_large.result()
        assert r_small.distances.shape == (2, 3)
        assert r_large.distances.shape == (2, 9)
        np.testing.assert_array_equal(r_small.indices, want_i[0:2, :3])
        np.testing.assert_array_equal(r_large.indices, want_i[2:4])
        # both were served by the same batch
        assert r_small.report.batch.batch_id == r_large.report.batch.batch_id

    def test_future_before_dispatch_times_out(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0)
        future = server.submit(queries, K)
        assert not future.done()
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        server.drain()
        assert future.done()

    def test_validation(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index)
        with pytest.raises(ValueError):
            server.submit(queries, 0)
        server.submit(queries, K, arrival_ms=5.0)
        with pytest.raises(ValueError, match="monotone"):
            server.submit(queries, K, arrival_ms=1.0)
        with pytest.raises(ValueError):
            Server(index, n_workers=0)


class TestLatencyModel:
    def test_queueing_spreads_percentiles(self, corpus, queries):
        """Saturating arrivals make later requests queue behind earlier
        batches, so p99 latency exceeds p50 deterministically."""
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=2, max_wait_ms=0.5)
        submit_rows(server, queries, gap_ms=0.01)
        server.drain()
        lat = [r.latency_ms for r in server.request_reports]
        assert np.percentile(lat, 99) > np.percentile(lat, 50)
        # device occupancy is serialized: batches never overlap
        reports = server.batch_reports
        for prev, cur in zip(reports, reports[1:]):
            assert cur.start_ms >= prev.completion_ms

    def test_completion_monotone_with_dispatch(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=3, max_wait_ms=1.0)
        submit_rows(server, queries, gap_ms=0.3)
        server.drain()
        for report in server.batch_reports:
            assert report.start_ms >= report.dispatch_ms
            assert report.completion_ms > report.start_ms
            assert report.service_ms > 0

    def test_deadline_missed_flagged_not_dropped(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        metrics = MetricsRegistry()
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0,
                        metrics=metrics)
        tight = server.submit(queries.slice_rows(0, 1), K, arrival_ms=0.0,
                              deadline_ms=1e-6)
        loose = server.submit(queries.slice_rows(1, 2), K, arrival_ms=0.0,
                              deadline_ms=1e9)
        server.drain()
        assert tight.result().report.deadline_missed
        assert not loose.result().report.deadline_missed
        assert tight.result().distances.shape == (1, K)
        assert metrics.get("serve_deadline_missed_total").value() == 1


class TestFaults:
    def test_resume_after_shard_fault_identical(self, corpus, queries):
        """A shard that dies repeatedly but is resumable must converge to
        the clean answer bit for bit."""
        want_d, want_i = reference(corpus, queries)
        index = ShardedIndex.build(corpus, n_shards=2)
        injector = FaultInjector(
            [FaultSpec(FaultKind.TRANSIENT, attempts=(0, 1, 2, 3, 4))],
            seed=3)
        metrics = MetricsRegistry()
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0,
                        fault_injectors={1: injector},
                        recovery=RecoveryPolicy(max_retries=1),
                        max_shard_resumes=5, metrics=metrics)
        future = server.submit(queries, K)
        server.drain()
        result = future.result()
        assert not result.partial
        np.testing.assert_array_equal(result.distances, want_d)
        np.testing.assert_array_equal(result.indices, want_i)
        assert metrics.get("serve_shard_resumes_total").value() > 0
        assert server.batch_reports[0].n_resumes > 0

    def test_irrecoverable_shard_degrades_to_partial(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        metrics = MetricsRegistry()
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0,
                        fault_injectors={1: stuck_injector()},
                        recovery=RecoveryPolicy(max_retries=1),
                        max_shard_resumes=1, metrics=metrics)
        future = server.submit(queries, K)
        server.drain()
        result = future.result()
        assert result.partial
        assert result.report.batch.failed_shards == (1,)
        # every neighbor comes from the surviving shard
        survivors = set(index.shards[0].global_ids.tolist())
        assert all(int(i) in survivors for i in result.indices.ravel())
        # and matches a direct query of that shard alone
        sub_corpus = corpus.take_rows(index.shards[0].global_ids)
        nn = NearestNeighbors(n_neighbors=K, metric="euclidean")
        nn.fit(sub_corpus)
        want_d, want_local = nn.kneighbors(queries, K)
        np.testing.assert_array_equal(result.distances, want_d)
        np.testing.assert_array_equal(
            result.indices, index.shards[0].global_ids[want_local])
        assert metrics.get("serve_shard_failures_total").value() == 1
        assert metrics.get("serve_partial_results_total").value() == 1

    def test_all_shards_failed_raises(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64, max_wait_ms=10.0,
                        fault_injectors={0: stuck_injector(1),
                                         1: stuck_injector(2)},
                        recovery=RecoveryPolicy(max_retries=1),
                        max_shard_resumes=0)
        future = server.submit(queries, K)
        results = server.drain()
        assert results == []       # nothing succeeded
        with pytest.raises(ShardFailedError) as exc_info:
            future.result()
        assert exc_info.value.failed_shards == (0, 1)
        assert len(exc_info.value.fault_log) > 0

    def test_fault_accounting_reconciles_with_metrics(self, corpus,
                                                      queries):
        """Summing the per-batch fault accounting must reproduce the
        ``serve_*`` counters exactly."""
        index = ShardedIndex.build(corpus, n_shards=2)
        injector = FaultInjector(
            [FaultSpec(FaultKind.TRANSIENT, attempts=(0, 1, 2))], seed=7)
        metrics = MetricsRegistry()
        server = Server(index, max_batch_rows=4, max_wait_ms=1.0,
                        fault_injectors={1: injector},
                        recovery=RecoveryPolicy(max_retries=1),
                        max_shard_resumes=4, metrics=metrics)
        futures = submit_rows(server, queries, gap_ms=0.4)
        server.drain()
        for f in futures:
            f.result()

        reports = server.batch_reports
        assert (metrics.get("serve_requests_total").value()
                == len(server.request_reports) == queries.n_rows)
        assert (sum(metrics.get("serve_batches_total")._values.values())
                == len(reports))
        assert (metrics.get("serve_shard_resumes_total").value()
                == sum(b.n_resumes for b in reports))
        fault_events = sum(b.n_fault_events for b in reports)
        got = metrics.get("serve_fault_events_total")
        assert (got.value() if got is not None else 0) == fault_events


class TestObservability:
    def test_span_hierarchy(self, corpus, queries):
        tracer = Tracer()
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=4, max_wait_ms=1.0,
                        n_workers=2, trace=tracer)
        submit_rows(server, queries, gap_ms=0.4)
        server.drain()

        batches = tracer.spans_named("serve.batch")
        assert len(batches) == len(server.batch_reports)
        shard_spans = [s for s in tracer.spans
                       if s.name.startswith("shard[")]
        assert len(shard_spans) == 2 * len(batches)
        # every shard span hangs under a batch span, even from fan-out
        # threads, and carries the nested plan execution
        for span in shard_spans:
            assert span.parent in batches
            assert any(c.name == "plan.execute" for c in span.children)
        requests = tracer.spans_named("serve.request")
        assert len(requests) == queries.n_rows
        assert all(r.parent in batches for r in requests)

    def test_trace_path_written_on_drain(self, corpus, queries, tmp_path):
        import json

        path = tmp_path / "serve-trace.json"
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64, trace=path)
        server.submit(queries, K)
        server.drain()
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "serve.batch" for e in events)

    def test_queue_depth_gauge(self, corpus, queries):
        metrics = MetricsRegistry()
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=1000, max_wait_ms=1000.0,
                        metrics=metrics)
        server.submit(queries.slice_rows(0, 1), K, arrival_ms=0.0)
        server.submit(queries.slice_rows(1, 2), K, arrival_ms=1.0)
        assert metrics.get("serve_queue_depth").value() == 2
        server.drain()
        assert metrics.get("serve_queue_depth").value() == 0

    def test_null_observability_default(self, corpus, queries):
        """No tracer/metrics configured: the server must run silently."""
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=8)
        futures = submit_rows(server, queries)
        server.drain()
        assert all(f.result().distances.shape == (1, K) for f in futures)


class TestDeadlineValidation:
    def test_past_deadline_rejected_naming_both_timestamps(self, corpus,
                                                           queries):
        from repro.errors import InvalidDeadlineError

        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64)
        with pytest.raises(InvalidDeadlineError) as exc_info:
            server.submit(queries.slice_rows(0, 1), K, arrival_ms=7.5,
                          deadline_ms=7.5)
        err = exc_info.value
        assert err.arrival_ms == 7.5 and err.deadline_ms == 7.5
        assert "7.5" in str(err)
        # rejected before admission: nothing queued, nothing ledgered
        assert server.scheduler.queue_depth == 0
        assert server.shed_reports == []

    def test_future_deadline_admitted(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64)
        future = server.submit(queries.slice_rows(0, 1), K, arrival_ms=7.5,
                               deadline_ms=7.6)
        server.drain()
        assert future.result().distances.shape == (1, K)


class TestDrainSemantics:
    def test_gauge_tracks_scheduler_state(self, corpus, queries):
        """The queue-depth gauge mirrors the scheduler's actual state at
        every transition, not a hard-coded zero on drain."""
        metrics = MetricsRegistry()
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=1000, max_wait_ms=1000.0,
                        metrics=metrics)
        for i in range(3):
            server.submit(queries.slice_rows(i, i + 1), K,
                          arrival_ms=float(i))
            gauge = metrics.get("serve_queue_depth")
            assert gauge.value() == server.scheduler.queue_depth == i + 1
        server.drain()
        assert gauge.value() == server.scheduler.queue_depth == 0

    def test_repeated_drain_is_idempotent(self, corpus, queries):
        index = ShardedIndex.build(corpus, n_shards=2)
        server = Server(index, max_batch_rows=64)
        futures = submit_rows(server, queries)
        first = server.drain()
        n_batches = len(server.batch_reports)
        second = server.drain()
        assert second == first
        assert len(first) == len(futures)
        assert len(server.batch_reports) == n_batches
        assert server.scheduler.queue_depth == 0


class TestStreamCostReuse:
    """Every batch streams each shard's resident operand through the
    hybrid kernel; its bank conflicts and segment-leader atomics are
    counted once per shard, on the first batch, not once per batch."""

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_each_shard_counted_once(self, corpus, queries, monkeypatch,
                                     n_workers):
        from repro.kernels import coo_spmv

        counted = {}
        for name in ("_sample_bank_conflicts", "_atomics_per_block"):
            counted[name] = []

            def count(streamed, spec, calls=counted[name],
                      original=getattr(coo_spmv, name)):
                calls.append(streamed)
                return original(streamed, spec)

            monkeypatch.setattr(coo_spmv, name, count)
        index = ShardedIndex.build(corpus, metric="cosine", n_shards=2,
                                   placement="degree_balanced",
                                   engine="hybrid_coo")
        server = Server(index, max_batch_rows=1, n_workers=n_workers)
        futures = submit_rows(server, queries)
        server.drain()
        assert all(f.result().distances.shape == (1, K) for f in futures)
        assert len(server.batch_reports) >= 10
        shards = sorted(id(s.operand.csr) for s in index.shards)
        for calls in counted.values():
            assert sorted(map(id, calls)) == shards
