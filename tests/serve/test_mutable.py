"""Unit tests for :mod:`repro.serve.mutable` (MutableIndex).

The bit-identity invariant gets its own differential and property suites;
this file pins the API contract — visibility rules, compaction reports
and scheduling, snapshot retention and validation, rebalancing, metrics,
and validation errors.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    CompactionFaultError,
    ShapeMismatchError,
    SnapshotFormatError,
)
from repro.faults.injector import FaultInjector
from repro.faults.spec import fatal_specs
from repro.neighbors.topk import SUPPRESSED_ID
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve import MutableIndex
from repro.testing import random_dense, seeded_rng

N_COLS = 8


@pytest.fixture
def rng():
    return seeded_rng(2024)


@pytest.fixture
def index(rng):
    return MutableIndex.build(random_dense(rng, 16, N_COLS, 0.5),
                              metric="euclidean", n_shards=2,
                              compact_threshold_rows=10 ** 9)


class TestVisibility:
    def test_initial_state(self, index):
        assert index.n_rows == 16
        assert index.generation == 0
        assert index.delta_rows == 0
        assert index.tombstone_count == 0
        assert index.n_shards == index.n_base_shards + 1
        np.testing.assert_array_equal(index.live_ids(), np.arange(16))

    def test_upsert_new_and_overwrite(self, index, rng):
        index.upsert([20, 3], random_dense(rng, 2, N_COLS, 0.5))
        assert index.n_rows == 17            # one new id, one overwrite
        assert index.delta_rows == 2         # both served from the delta
        assert 20 in index.live_ids()

    def test_delete_and_blind_delete(self, index):
        index.delete([5, 500])
        assert index.n_rows == 15
        assert index.tombstone_count == 2    # the blind one is recorded too
        assert 5 not in index.live_ids()

    def test_delete_then_reinsert(self, index, rng):
        index.delete([5])
        index.upsert([5], random_dense(rng, 1, N_COLS, 0.5))
        assert index.n_rows == 16
        assert 5 in index.live_ids()
        assert index.tombstone_count == 0

    def test_materialize_matches_live_ids(self, index, rng):
        index.upsert([30], random_dense(rng, 1, N_COLS, 0.5))
        index.delete([0])
        ids, raw = index.materialize()
        np.testing.assert_array_equal(ids, index.live_ids())
        assert raw.n_rows == ids.size
        assert raw.n_cols == N_COLS

    def test_upsert_validation(self, index, rng):
        with pytest.raises(ShapeMismatchError):
            index.upsert([1], random_dense(rng, 1, N_COLS + 1, 0.5))
        with pytest.raises(ValueError, match="duplicates"):
            index.upsert([1, 1], random_dense(rng, 2, N_COLS, 0.5))
        with pytest.raises(ValueError, match="2 ids for 1 rows"):
            index.upsert([1, 2], random_dense(rng, 1, N_COLS, 0.5))
        with pytest.raises(ValueError):
            index.upsert([int(SUPPRESSED_ID)],
                         random_dense(rng, 1, N_COLS, 0.5))
        with pytest.raises(ValueError):
            index.delete([-1])

    def test_all_rows_deleted_rejects_queries(self, rng):
        index = MutableIndex.build(random_dense(rng, 4, N_COLS, 0.5),
                                   metric="euclidean", n_shards=1)
        index.delete(np.arange(4))
        assert index.n_rows == 0
        with pytest.raises(ValueError, match="no live rows"):
            index.kneighbors(random_dense(rng, 1, N_COLS, 0.5), 2)
        with pytest.raises(ValueError, match="zero live rows"):
            index.compact()


class TestCompaction:
    def test_report_fields(self, index, rng):
        index.upsert([40, 41], random_dense(rng, 2, N_COLS, 0.5))
        index.delete([1])
        report = index.compact(reason="manual")
        assert report.generation == 1
        assert report.reason == "manual"
        assert report.absorbed_rows == 2
        assert report.absorbed_tombstones == 1
        assert report.live_rows == 17
        assert report.simulated_seconds > 0.0
        assert not report.resumed and not report.noop
        assert index.delta_rows == 0 and index.tombstone_count == 0
        assert index.compaction_reports[-1] is report

    def test_noop_short_circuit(self, index):
        report = index.compact()
        assert report.noop
        assert index.generation == 0

    def test_retarget_forces_rebuild(self, index):
        report = index.compact(placement="degree_balanced")
        assert not report.noop
        assert index.generation == 1
        assert index.base.placement == "degree_balanced"

    def test_reshard_count(self, index, rng):
        index.upsert([50], random_dense(rng, 1, N_COLS, 0.5))
        report = index.compact(n_shards=4)
        assert report.n_shards == 4
        assert index.n_base_shards == 4
        assert index.n_shards == 5

    def test_maybe_compact_threshold(self, rng):
        index = MutableIndex.build(random_dense(rng, 8, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=3)
        index.upsert([20, 21], random_dense(rng, 2, N_COLS, 0.5))
        assert index.maybe_compact(now_ms=1.0) is None
        index.delete([0])
        report = index.maybe_compact(now_ms=2.0)
        assert report is not None and report.reason == "delta_rows"
        assert index.maybe_compact(now_ms=3.0) is None   # clean again

    def test_maybe_compact_interval(self, rng):
        index = MutableIndex.build(random_dense(rng, 8, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9,
                                   compact_interval_ms=100.0)
        index.upsert([20], random_dense(rng, 1, N_COLS, 0.5))
        assert index.maybe_compact(now_ms=50.0) is None
        report = index.maybe_compact(now_ms=150.0)
        assert report is not None and report.reason == "interval"

    def test_maybe_compact_resumes_pending(self, index, rng):
        index.upsert([60], random_dense(rng, 1, N_COLS, 0.5))
        with pytest.raises(CompactionFaultError):
            index.compact(fault_injector=FaultInjector(fatal_specs()))
        report = index.maybe_compact(now_ms=1.0)
        assert report is not None and report.resumed

    def test_fault_log_and_watermark(self, index, rng):
        index.upsert([60], random_dense(rng, 1, N_COLS, 0.5))
        injector = FaultInjector(fatal_specs(tiles=1), seed=5)
        with pytest.raises(CompactionFaultError) as excinfo:
            index.compact(fault_injector=injector)
        err = excinfo.value
        assert err.watermark == 1
        assert err.cause is not None
        actions = [e.action for e in err.fault_log]
        assert "injected" in actions and "unabsorbed" in actions
        assert "retried" in actions          # the budget was spent first

    def test_simulated_clock_advances(self, index, rng):
        index.upsert([60], random_dense(rng, 1, N_COLS, 0.5))
        report = index.compact(now_ms=10.0)
        assert report.completed_ms > report.started_ms
        assert report.started_ms == 10.0

    def test_refused_compaction_keeps_the_delta(self, rng):
        """A compaction refused before it starts (no live rows, unknown
        placement) leaves every tombstone and upsert where it was."""
        index = MutableIndex.build(random_dense(rng, 4, N_COLS, 0.5),
                                   metric="euclidean", n_shards=1)
        index.delete(np.arange(4))
        with pytest.raises(ValueError, match="zero live rows"):
            index.compact()
        index.upsert([9], random_dense(rng, 1, N_COLS, 0.5))
        with pytest.raises(ValueError, match="placement"):
            index.compact(placement="random")
        assert not index.pending_compaction
        index.compact()
        np.testing.assert_array_equal(index.live_ids(), [9])

    @pytest.mark.parametrize("case", ["plain", "resumed", "retarget"])
    def test_lands_on_fresh_build_layout(self, rng, case):
        """A compacted base is shard for shard the base a fresh build of
        the live corpus would cut with the same layout."""
        index = MutableIndex.build(random_dense(rng, 16, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   devices=["volta", "ampere"],
                                   batch_rows=512, n_replicas=2,
                                   compact_threshold_rows=10 ** 9)
        index.upsert([3, 40, 41], random_dense(rng, 3, N_COLS, 0.5))
        index.delete([1, 7])
        if case == "resumed":
            with pytest.raises(CompactionFaultError):
                index.compact(fault_injector=FaultInjector(
                    fatal_specs(tiles=1), seed=5))
            index.compact()
        elif case == "retarget":
            index.compact(placement="degree_balanced", n_shards=4)
        else:
            index.compact()
        ids, raw = index.materialize()
        got = index.base
        want = MutableIndex.build(
            raw, ids, metric="euclidean", n_shards=got.n_shards,
            placement=got.placement, engine=got.engine,
            devices=[s.device.name for s in got.shards],
            batch_rows=got.batch_rows, n_replicas=got.n_replicas).base
        for name in ("placement", "engine", "batch_rows", "n_replicas",
                     "memory_budget_bytes", "n_shards"):
            assert getattr(got, name) == getattr(want, name), name
        for mine, fresh in zip(got.shards, want.shards):
            assert mine.shard_id == fresh.shard_id
            assert mine.device.name == fresh.device.name
            np.testing.assert_array_equal(mine.global_ids, fresh.global_ids)
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(mine.operand.csr, name),
                    getattr(fresh.operand.csr, name))
            assert sorted(mine.operand.norms) == sorted(fresh.operand.norms)
            for kind, values in fresh.operand.norms.items():
                np.testing.assert_array_equal(mine.operand.norms[kind],
                                              values)


class TestRebalance:
    def test_imbalance_grows_with_skewed_deletes(self, rng):
        index = MutableIndex.build(random_dense(rng, 20, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9)
        base = index.imbalance()
        # Hollow out shard 0 (rows 0..9 under contiguous placement).
        index.delete(np.arange(4, 10))
        assert index.imbalance() > base
        assert index.needs_rebalance(threshold=0.1)
        report = index.rebalance()
        assert report.reason == "rebalance"
        assert index.base.placement == "degree_balanced"
        assert index.imbalance() < 0.5

    def test_single_shard_never_needs_rebalance(self, rng):
        index = MutableIndex.build(random_dense(rng, 8, N_COLS, 0.5),
                                   metric="euclidean", n_shards=1)
        assert not index.needs_rebalance(threshold=0.0)


class TestSnapshots:
    def test_round_trip(self, index, rng, tmp_path):
        index.upsert([70], random_dense(rng, 1, N_COLS, 0.5))
        index.delete([2])
        index.compact()
        index.snapshot(tmp_path)
        restored = MutableIndex.restore(tmp_path)
        q = random_dense(rng, 3, N_COLS, 0.5)
        np.testing.assert_array_equal(index.kneighbors(q, 4)[0],
                                      restored.kneighbors(q, 4)[0])
        np.testing.assert_array_equal(index.kneighbors(q, 4)[1],
                                      restored.kneighbors(q, 4)[1])
        assert restored.generation == index.generation
        assert restored.n_base_shards == index.n_base_shards

    def test_snapshot_includes_uncompacted_delta(self, index, rng,
                                                 tmp_path):
        index.upsert([70], random_dense(rng, 1, N_COLS, 0.5))
        index.snapshot(tmp_path)
        restored = MutableIndex.restore(tmp_path)
        assert 70 in restored.live_ids()
        assert restored.delta_rows == 0      # restore compacts by design

    def test_rolling_retention(self, index, tmp_path):
        for _ in range(6):
            index.snapshot(tmp_path)
        assert MutableIndex.list_snapshots(tmp_path) == [3, 4, 5, 6]

    def test_point_in_time(self, index, rng, tmp_path):
        index.snapshot(tmp_path)             # version 1: 16 rows
        index.upsert([80], random_dense(rng, 1, N_COLS, 0.5))
        index.snapshot(tmp_path)             # version 2: 17 rows
        assert MutableIndex.restore(tmp_path, version=1).n_rows == 16
        assert MutableIndex.restore(tmp_path, version=2).n_rows == 17
        with pytest.raises(SnapshotFormatError, match="not retained"):
            MutableIndex.restore(tmp_path, version=9)

    def test_fewer_live_rows_than_shards(self, index, rng, tmp_path):
        index.delete(np.arange(1, 16))
        index.snapshot(tmp_path)
        restored = MutableIndex.restore(tmp_path)
        assert restored.n_base_shards == 1
        q = random_dense(rng, 3, N_COLS, 0.5)
        for got, want in zip(restored.kneighbors(q, 1),
                             index.kneighbors(q, 1)):
            np.testing.assert_array_equal(got, want)

    def test_zero_live_rows_refused(self, index, tmp_path):
        index.delete(np.arange(16))
        with pytest.raises(ValueError, match="zero live rows"):
            index.snapshot(tmp_path)
        assert MutableIndex.list_snapshots(tmp_path) == []

    def test_restore_empty_directory(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no mutable"):
            MutableIndex.restore(tmp_path)

    def test_truncated_snapshot_rejected(self, index, tmp_path):
        path = index.snapshot(tmp_path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SnapshotFormatError):
            MutableIndex.restore(tmp_path)

    def test_version_skew_rejected(self, index, tmp_path):
        path = index.snapshot(tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format"] = 99
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path.with_suffix(""), **arrays)
        with pytest.raises(SnapshotFormatError, match="format"):
            MutableIndex.restore(tmp_path)

    def test_bad_field_named(self, index, tmp_path):
        path = index.snapshot(tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["n_rows"] = "sixteen"
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path.with_suffix(""), **arrays)
        with pytest.raises(SnapshotFormatError, match="n_rows"):
            MutableIndex.restore(tmp_path)

    def test_corrupt_ids_named(self, index, tmp_path):
        path = index.snapshot(tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["ids"] = arrays["ids"][:-2]
        np.savez(path.with_suffix(""), **arrays)
        with pytest.raises(SnapshotFormatError, match="ids"):
            MutableIndex.restore(tmp_path)

    @pytest.mark.parametrize("field, mutate", [
        ("devices", lambda meta, arrays: meta.update(
            devices=["no-such-gpu"] * meta["n_shards"])),
        ("n_shards", lambda meta, arrays: meta.update(n_shards=0,
                                                      devices=[])),
        ("placement", lambda meta, arrays: meta.update(placement="random")),
        ("ids", lambda meta, arrays: arrays.update(
            ids=arrays["ids"][::-1].copy())),
        ("n_replicas", lambda meta, arrays: meta.pop("n_replicas")),
        ("n_rows", lambda meta, arrays: (
            meta.update(n_rows=0),
            arrays.update(ids=np.zeros(0, dtype=np.int64),
                          indptr=np.zeros(1, dtype=np.int64),
                          indices=np.zeros(0, dtype=np.int64),
                          data=np.zeros(0)))),
    ], ids=["devices", "n_shards", "placement", "ids", "no-n_replicas",
            "zero-rows"])
    def test_out_of_range_field_named(self, index, tmp_path, field, mutate):
        path = index.snapshot(tmp_path)
        arrays = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        mutate(meta, arrays)
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path.with_suffix(""), **arrays)
        with pytest.raises(SnapshotFormatError, match=field):
            MutableIndex.restore(tmp_path)


class TestObservability:
    def test_metrics(self, rng):
        metrics = MetricsRegistry()
        index = MutableIndex.build(random_dense(rng, 10, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9,
                                   metrics=metrics)
        index.upsert([20, 21], random_dense(rng, 2, N_COLS, 0.5))
        index.delete([0])
        assert metrics.counter("mutable_upserts_total").value() == 2.0
        assert metrics.counter("mutable_deletes_total").value() == 1.0
        assert metrics.gauge("mutable_delta_rows").value() == 2.0
        assert metrics.gauge("mutable_tombstones").value() == 1.0
        index.compact()
        assert metrics.gauge("index_generation").value() == 1.0
        assert metrics.gauge("mutable_delta_rows").value() == 0.0
        assert metrics.counter("compaction_total").value(
            reason="manual") == 1.0

    def test_unobserved_writes_compute_no_state(self, rng, monkeypatch):
        """With no registry attached, upserts and deletes never read the
        live ids or build the delta shard: the state gauges are computed
        only when something records them."""
        index = MutableIndex.build(random_dense(rng, 10, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9)
        calls = []
        for name in ("live_ids", "_delta_shard"):
            original = getattr(MutableIndex, name)

            def counted(self, *args, _name=name, _original=original,
                        **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MutableIndex, name, counted)
        for i in range(4):
            index.upsert([20 + i], random_dense(rng, 1, N_COLS, 0.5))
            index.delete([i])
        assert calls == []

    def test_compaction_span(self, rng):
        tracer = Tracer()
        index = MutableIndex.build(random_dense(rng, 10, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9,
                                   tracer=tracer)
        index.upsert([20], random_dense(rng, 1, N_COLS, 0.5))
        index.compact()
        spans = tracer.spans_named("mutable.compact")
        assert len(spans) == 1
        assert spans[0].args["generation"] == 1
        assert spans[0].sim_seconds > 0.0

    def test_resume_metrics(self, rng):
        metrics = MetricsRegistry()
        index = MutableIndex.build(random_dense(rng, 10, N_COLS, 0.5),
                                   metric="euclidean", n_shards=2,
                                   compact_threshold_rows=10 ** 9,
                                   metrics=metrics)
        index.upsert([20], random_dense(rng, 1, N_COLS, 0.5))
        with pytest.raises(CompactionFaultError):
            index.compact(fault_injector=FaultInjector(fatal_specs()))
        index.compact()
        assert metrics.counter("compaction_faults_total").value() == 1.0
        assert metrics.counter("compaction_resumes_total").value() == 1.0
        assert metrics.counter("compaction_retries_total").value() > 0.0
