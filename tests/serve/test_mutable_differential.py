"""Differential suite: the mutable index vs a fresh fit at every step.

The headline invariant of ``repro.serve.mutable``: after ANY prefix of a
seeded random upsert/delete/compact/rebalance/query schedule, the index's
``kneighbors`` is bit-for-bit identical to a from-scratch
:class:`~repro.neighbors.NearestNeighbors` fit of the equivalent live
corpus — regardless of shard count, worker fan-out, compaction state, or
a compaction that was killed mid-flight and resumed from its watermark.

The ``CHAOS_SEED`` environment variable (set by the CI chaos matrix)
steers the probabilistic fault schedule of the chaos test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import CompactionFaultError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy
from repro.faults.spec import FaultKind, FaultSpec, fatal_specs
from repro.serve import MutableIndex, Server
from repro.testing import (
    MutationOp,
    MutationOracle,
    random_dense,
    random_mutation_schedule,
    seeded_rng,
)

METRIC = "euclidean"
N_COLS = 8

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _build_pair(seed, *, n_shards, include_reshard=False, n_ops=24,
                **knobs):
    """(index, oracle, ops, queries) over the same seeded schedule."""
    initial, ops = random_mutation_schedule(
        seed, n_ops=n_ops, n_cols=N_COLS, include_reshard=include_reshard)
    oracle = MutationOracle(N_COLS)
    oracle.apply(MutationOp("upsert", tuple(range(initial.shape[0])),
                            rows=initial))
    knobs.setdefault("compact_threshold_rows", 10 ** 9)  # explicit only
    index = MutableIndex.build(initial, metric=METRIC, n_shards=n_shards,
                               **knobs)
    queries = random_dense(seeded_rng(seed + 7919), 5, N_COLS, 0.5)
    return index, oracle, ops, queries


def _apply(index, op, **compact_kwargs):
    if op.kind == "upsert":
        index.upsert(np.asarray(op.ids, dtype=np.int64), op.rows)
    elif op.kind == "delete":
        index.delete(np.asarray(op.ids, dtype=np.int64))
    elif op.kind == "compact":
        index.compact(**compact_kwargs)
    elif op.kind == "rebalance":
        index.rebalance(**compact_kwargs)


def _assert_identical(index, oracle, queries, k=5, *, n_workers=1):
    got_d, got_i = index.kneighbors(queries, k, n_workers=n_workers)
    want_d, want_i = oracle.fresh_fit_kneighbors(queries, k, metric=METRIC)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_i, want_i)
    # The read above went through the cached live count, which a write
    # that failed to drop it would have left at its old value.
    assert index.n_rows == index.live_ids().size == oracle.live_ids().size


class TestEveryPrefix:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("n_shards", [2, 3])
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_schedule_replay_bit_identical(self, seed, n_shards, n_workers):
        index, oracle, ops, queries = _build_pair(seed, n_shards=n_shards)
        _assert_identical(index, oracle, queries, n_workers=n_workers)
        for op in ops:
            _apply(index, op)
            oracle.apply(op)
            _assert_identical(index, oracle, queries, n_workers=n_workers)

    @pytest.mark.parametrize("seed", [404, 505])
    def test_reshard_schedule_bit_identical(self, seed):
        index, oracle, ops, queries = _build_pair(seed, n_shards=2,
                                                  include_reshard=True)
        for op in ops:
            _apply(index, op)
            oracle.apply(op)
            _assert_identical(index, oracle, queries)


class TestMidCompactionFault:
    def test_kill_resume_watermark(self):
        index, oracle, ops, queries = _build_pair(606, n_shards=3)
        for op in ops[:8]:
            _apply(index, op)
            oracle.apply(op)
        # Make the delta non-empty so the compaction has work to do.
        extra = MutationOp("upsert", (60, 61),
                           rows=random_dense(seeded_rng(9), 2, N_COLS, 0.5))
        _apply(index, extra)
        oracle.apply(extra)

        injector = FaultInjector(fatal_specs(tiles=1), seed=CHAOS_SEED)
        with pytest.raises(CompactionFaultError) as excinfo:
            index.compact(fault_injector=injector)
        assert excinfo.value.watermark == 1
        assert any(e.action == "unabsorbed"
                   for e in excinfo.value.fault_log)
        assert index.pending_compaction

        # Serving continues bit-identically from base + sealed delta ...
        _assert_identical(index, oracle, queries)
        # ... even while new mutations land in the fresh memtable.
        late = MutationOp("upsert", (62,),
                          rows=random_dense(seeded_rng(10), 1, N_COLS, 0.5))
        _apply(index, late)
        oracle.apply(late)
        _assert_identical(index, oracle, queries, n_workers=4)

        gen_before = index.generation
        report = index.compact()          # resume, no injector this time
        assert report.resumed
        assert report.resumed_from_watermark == 1
        assert index.generation == gen_before + 1
        assert not index.pending_compaction
        _assert_identical(index, oracle, queries)
        # The late upsert arrived after sealing: it rides the next cycle.
        assert index.delta_rows == 1

    def test_retarget_while_pending_rejected(self):
        index, _, _, _ = _build_pair(707, n_shards=2)
        index.upsert([50], np.ones((1, N_COLS)))
        with pytest.raises(CompactionFaultError):
            index.compact(fault_injector=FaultInjector(fatal_specs()))
        with pytest.raises(ValueError, match="pending"):
            index.compact(placement="degree_balanced")
        index.compact()                   # plain resume is fine
        assert not index.pending_compaction


class TestChaos:
    def test_seeded_fault_storm_converges(self):
        """Probabilistic faults under a tiny retry budget: compaction may
        abort any number of times, but resuming must always converge and
        never break serving identity (seed swept by CI)."""
        index, oracle, ops, queries = _build_pair(
            808 + CHAOS_SEED, n_shards=3)
        storm = (FaultSpec(kind=FaultKind.STUCK, probability=0.45,
                           attempts=(0, 1, 2, 3), depths=(0,)),)
        recovery = RecoveryPolicy(max_retries=1)
        rng = seeded_rng(4242 + CHAOS_SEED)
        for step, op in enumerate(ops):
            if op.kind in ("compact", "rebalance"):
                injector = FaultInjector(
                    storm, seed=CHAOS_SEED * 1000 + step)
                for round_no in range(64):
                    try:
                        if index.pending_compaction:
                            # A faulted rebalance resumes as a plain
                            # compact: re-targeting a pending run is
                            # rejected by design.
                            index.compact(fault_injector=injector,
                                          recovery=recovery)
                        else:
                            _apply(index, op, fault_injector=injector,
                                   recovery=recovery)
                        break
                    except CompactionFaultError:
                        _assert_identical(index, oracle, queries)
                        injector = FaultInjector(
                            storm, seed=int(rng.integers(2 ** 31)))
                else:
                    pytest.fail("compaction never converged")
            else:
                _apply(index, op)
            oracle.apply(op)
            _assert_identical(index, oracle, queries)
        assert not index.pending_compaction


class TestServedMutations:
    def test_server_replay_bit_identical(self):
        """The same differential invariant through the full Server stack
        (micro-batching, replica routing, cross-shard merge)."""
        index, oracle, ops, queries = _build_pair(909, n_shards=2,
                                                  n_replicas=2)
        server = Server(index, max_batch_rows=64, max_wait_ms=0.0,
                        n_workers=2)
        for op in ops:
            _apply(index, op)
            oracle.apply(op)
            future = server.submit(queries, n_neighbors=5)
            server.drain()
            result = future.result()
            want_d, want_i = oracle.fresh_fit_kneighbors(queries, 5,
                                                         metric=METRIC)
            np.testing.assert_array_equal(result.distances, want_d)
            np.testing.assert_array_equal(result.indices, want_i)
