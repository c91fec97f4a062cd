"""Online k-NN serving: sharded resident index + micro-batched queries.

The offline layers prepare and execute one pairwise job at a time; this
package turns them into a *service* (see DESIGN.md §10 and §13):

- :class:`ShardedIndex` — the corpus prepared exactly once
  (pre-transform + cached norms via
  :class:`~repro.plan.PreparedOperand`), rows partitioned across N
  simulated devices (contiguous bands or nnz-balanced placement) with
  ``n_replicas`` sibling copies per shard, and ``save()``/``load()``
  snapshots;
- :class:`QueryScheduler` — an admission window coalescing concurrent
  query blocks into micro-batches on a simulated clock
  (``max_batch_rows`` / ``max_wait_ms``), ordered
  earliest-deadline-first within priority class;
- :class:`Server` — ``submit()`` futures, fan-out of each batch across
  the shards' least-loaded live replicas, cross-shard top-k merge with
  global tie-breaks (bit-identical to the unsharded estimator),
  watermark resume on injected faults, mid-batch
  **failover** to a sibling replica when one dies (still bit-identical),
  and ``partial=True`` degradation only once every replica of a shard is
  gone — all reported through ``serve.batch`` / ``shard[i]`` /
  ``serve.request`` spans and the ``serve_*`` metrics;
- :class:`AdmissionController` — queue-depth / batch-age / token-bucket
  gates raising structured :class:`~repro.errors.AdmissionRejected`;
- :class:`BackpressureController` — an SLO-burn-driven shed ladder
  (reject low priority → degrade to smaller k → top priority only) over
  :class:`~repro.obs.SLOMonitor` on the simulated clock;
- :func:`heavy_tailed_trace` — seeded bursty/diurnal arrival traces for
  benches and chaos tests;
- :class:`MutableIndex` — online ``upsert``/``delete`` over the frozen
  base via an LSM-style memtable + sealed delta served as one extra
  pseudo-shard, background compaction on the simulated clock with
  watermark resume after faults, rolling versioned snapshots with
  point-in-time :meth:`~MutableIndex.restore`, and degree-drift
  :meth:`~MutableIndex.rebalance` — every answer bit-identical to a
  fresh fit of the live corpus (DESIGN.md §14).

Quick start::

    from repro.serve import Server, ShardedIndex

    index = ShardedIndex.build(corpus, metric="cosine", n_shards=4,
                               placement="degree_balanced", n_replicas=2)
    server = Server(index, max_batch_rows=64, max_wait_ms=2.0)
    future = server.submit(queries, n_neighbors=10, priority=0)
    server.drain()
    result = future.result()        # .distances, .indices, .report
"""

from repro.errors import (
    AdmissionRejected,
    CompactionFaultError,
    InvalidDeadlineError,
    ServeError,
    ShardFailedError,
    SnapshotFormatError,
)
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.backpressure import (
    DEFAULT_SHED_LADDER,
    BackpressureController,
    ShedRung,
)
from repro.serve.replication import ProbeOutcome, ReplicaRouter, ReplicaState
from repro.serve.request import (
    BatchReport,
    RequestReport,
    ServeFuture,
    ServeRequest,
    ServeResult,
    ShardReport,
    ShedReport,
)
from repro.serve.mutable import (
    MUTABLE_SNAPSHOT_VERSION,
    CompactionReport,
    MutableIndex,
)
from repro.serve.scheduler import MicroBatch, QueryScheduler, edf_order
from repro.serve.server import Server
from repro.serve.sharding import PLACEMENTS, Shard, ShardedIndex
from repro.serve.traffic import TraceRequest, heavy_tailed_trace

__all__ = [
    "Server",
    "ShardedIndex",
    "Shard",
    "PLACEMENTS",
    "MutableIndex",
    "CompactionReport",
    "MUTABLE_SNAPSHOT_VERSION",
    "QueryScheduler",
    "MicroBatch",
    "edf_order",
    "ServeRequest",
    "ServeResult",
    "ServeFuture",
    "ShardReport",
    "BatchReport",
    "RequestReport",
    "ShedReport",
    "AdmissionController",
    "TokenBucket",
    "BackpressureController",
    "ShedRung",
    "DEFAULT_SHED_LADDER",
    "ReplicaRouter",
    "ReplicaState",
    "ProbeOutcome",
    "TraceRequest",
    "heavy_tailed_trace",
    "ServeError",
    "SnapshotFormatError",
    "CompactionFaultError",
    "ShardFailedError",
    "AdmissionRejected",
    "InvalidDeadlineError",
]
