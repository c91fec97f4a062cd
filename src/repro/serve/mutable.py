"""Mutable k-NN serving: an LSM-style overlay on the frozen index.

The :class:`~repro.serve.ShardedIndex` is fit-once; production corpora are
not. :class:`MutableIndex` keeps the frozen index as the *base generation*
and layers two mutable levels on top (DESIGN.md §14):

- **L0 — memtable**: ``upsert(ids, rows)`` appends raw (pre-transform)
  rows to a :class:`~repro.sparse.CSRRowBuilder` log with latest-wins
  positions; ``delete(ids)`` records tombstones. Both are O(row).
- **L1 — sealed delta**: captured atomically when a compaction starts, so
  serving keeps a consistent view while the new base is built (and while
  a faulted compaction waits to be resumed).
- **L2 — base**: the compacted :class:`~repro.serve.ShardedIndex`.

**Query path.** The delta levels serve as one extra pseudo-shard (so a
:class:`~repro.serve.Server`'s replica router keeps a constant shard
count across compactions). Each base shard widens its per-shard top-k by
the number of suppressed ids it owns (``shard_k``), then masks tombstoned
and superseded candidates to the ``(+inf, SUPPRESSED_ID)`` sentinel
(``filter_shard_topk`` → :func:`~repro.neighbors.topk.suppress_pairs`);
one :class:`~repro.neighbors.topk.TopKAccumulator` merge with ``(value,
global id)`` tie-breaks then reproduces a fresh
:class:`~repro.neighbors.NearestNeighbors` fit of the live corpus **bit
for bit** — the widened k guarantees at least ``min(k, live)`` live
candidates survive each shard's selection, and the sentinel sorts after
every real candidate. ``tests/serve/test_mutable_differential.py`` replays
randomized op schedules against exactly that oracle at every prefix.

**Compaction.** :meth:`compact` materializes the live raw corpus, cuts
the next generation with the same shard constructor a fresh build uses,
seals the memtable, and charges the shard builds to the simulated clock
one at a time. Shard builds run under the
:class:`~repro.faults.RecoveryPolicy` (classify → retry with simulated
backoff); a fault that exhausts the budget raises
:class:`~repro.errors.CompactionFaultError` carrying the shard
**watermark** — the pending state is kept, serving continues from base +
sealed delta + (new) memtable, and a later :meth:`compact` resumes
charging from the watermark. :meth:`rebalance` is a compaction onto
``degree_balanced`` placement for when degree drift breaks the original
split (:meth:`imbalance` measures the live-nnz skew).

**Snapshots.** :meth:`snapshot` writes rolling versioned ``.npz`` files
of the live logical state (raw rows + ids + config); :meth:`restore`
rebuilds any retained version — point-in-time recovery. The layout
fields are the frozen index's snapshot schema, read back by the same
field-naming :class:`~repro.errors.SnapshotFormatError` validation.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.distances import DistanceMeasure, make_distance
from repro.errors import (
    CompactionFaultError,
    ShapeMismatchError,
    SnapshotFormatError,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy
from repro.faults.spec import FaultEvent, FaultKind
from repro.neighbors.topk import SUPPRESSED_ID, suppress_pairs
from repro.obs.record import observer
from repro.obs.tracer import NULL_SPAN
from repro.plan.pairwise_plan import PreparedOperand, prepare_operand
from repro.serve.sharding import (
    Shard,
    ShardedIndex,
    build_snapshot_csr,
    index_config,
    load_snapshot_arrays,
    parse_snapshot_meta,
    read_index_config,
    require_meta_field,
)
from repro.sparse.builder import CSRRowBuilder
from repro.sparse.convert import as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import vstack

__all__ = ["MutableIndex", "CompactionReport", "MUTABLE_SNAPSHOT_VERSION"]

#: Mutable snapshot format version (independent of the frozen index's).
MUTABLE_SNAPSHOT_VERSION = 1

#: Simulated cost model for building one new-generation shard.
_BUILD_SECONDS_PER_ROW = 1e-6
_BUILD_SECONDS_PER_NNZ = 2e-8

_SNAPSHOT_NAME = re.compile(r"mutable-(\d{6})\.npz$")


@dataclass(frozen=True)
class CompactionReport:
    """One compaction (or rebalance) attempt's outcome record."""

    generation: int
    reason: str
    n_shards: int
    placement: str
    live_rows: int
    #: delta rows (memtable + sealed) folded into the new base
    absorbed_rows: int
    absorbed_tombstones: int
    simulated_seconds: float
    started_ms: float
    completed_ms: float
    n_retries: int = 0
    #: True when this call resumed a previously faulted compaction
    resumed: bool = False
    resumed_from_watermark: int = 0
    #: True when there was nothing to absorb and the base was kept as-is
    noop: bool = False
    fault_log: Tuple[FaultEvent, ...] = ()


@dataclass(frozen=True)
class _SealedDelta:
    """An immutable delta generation: raw rows + tombstones, ids sorted."""

    ids: np.ndarray
    raw: CSRMatrix
    tombstones: frozenset


@dataclass
class _PendingCompaction:
    """Resumable state of an in-flight (possibly faulted) compaction."""

    reason: str
    ids: np.ndarray
    raw: CSRMatrix
    #: the next generation, cut once when the compaction starts
    index: ShardedIndex
    started_ms: float
    absorbed_rows: int
    absorbed_tombstones: int
    #: shards of ``index`` whose build has been charged; a resume starts here
    watermark: int = 0
    simulated_seconds: float = 0.0
    n_retries: int = 0
    fault_log: List[FaultEvent] = field(default_factory=list)


class MutableIndex:
    """A served k-NN index accepting online upserts and deletes.

    Build one with :meth:`build` (or :meth:`restore`), mutate it with
    :meth:`upsert` / :meth:`delete`, query it directly with
    :meth:`kneighbors` or serve it through
    :class:`~repro.serve.Server` — the serving interface (``shards``,
    ``shard_plan``, ``shard_k``, ``filter_shard_topk``, ...) is shared
    with the frozen index, with one delta pseudo-shard appended so the
    shard count stays constant across compactions. Every answer is
    bit-identical to a fresh fit of the current live corpus.

    Mutations and compactions take an internal lock; queries are safe
    against each other but must not race a mutation mid-batch (the usual
    simulated-clock usage is serial anyway).
    """

    def __init__(self, base: ShardedIndex, base_ids: np.ndarray,
                 base_raw: CSRMatrix, *,
                 compact_threshold_rows: int = 256,
                 compact_interval_ms: Optional[float] = None,
                 snapshot_retention: int = 4,
                 recovery: Optional[RecoveryPolicy] = None,
                 generation: int = 0,
                 next_snapshot_version: int = 1,
                 tracer=None, metrics=None, telemetry=None):
        base_ids = np.asarray(base_ids, dtype=np.int64)
        if base_ids.ndim != 1 or base_ids.size != base.n_rows:
            raise ValueError(
                f"base_ids must be 1-D with one id per base row "
                f"({base.n_rows}), got shape {base_ids.shape}")
        if base_raw.n_rows != base.n_rows:
            raise ValueError(
                f"base_raw has {base_raw.n_rows} rows but the base index "
                f"holds {base.n_rows}")
        if base_ids.size > 1 and (np.diff(base_ids) <= 0).any():
            raise ValueError("base_ids must be strictly ascending")
        if compact_threshold_rows <= 0:
            raise ValueError("compact_threshold_rows must be positive")
        if snapshot_retention <= 0:
            raise ValueError("snapshot_retention must be positive")
        self._base = base
        self._base_ids = base_ids
        self._base_raw = base_raw
        self.compact_threshold_rows = int(compact_threshold_rows)
        self.compact_interval_ms = (None if compact_interval_ms is None
                                    else float(compact_interval_ms))
        self.snapshot_retention = int(snapshot_retention)
        self._delta_device = base.shards[0].device
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._obs = observer(tracer, metrics, telemetry)
        self.tracer = self._obs.tracer
        self.metrics = self._obs.metrics
        #: optional :class:`~repro.obs.Telemetry` receiving one
        #: ``"compaction"`` wide event per completed (or no-op) compaction
        self.telemetry = telemetry
        self._mem = CSRRowBuilder(base.n_cols)
        self._mem_latest: Dict[int, int] = {}
        self._mem_tombstones: Set[int] = set()
        self._sealed: Optional[_SealedDelta] = None
        self._pending: Optional[_PendingCompaction] = None
        self._generation = int(generation)
        self._snapshot_version = int(next_snapshot_version)
        self._now_ms = 0.0
        self._last_compact_ms = 0.0
        self._lock = threading.RLock()
        #: views derived from the current state (suppressed ids, overall
        #: and per base shard; the live row count; the delta pseudo-shard),
        #: dropped on every visible mutation
        self._cache: dict = {}
        self.compaction_reports: List[CompactionReport] = []
        self._touch()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, x, ids=None, *, metric: str = "euclidean",
              metric_params: Optional[dict] = None, n_shards: int = 2,
              placement: str = "contiguous", engine: str = "hybrid_coo",
              devices=None, batch_rows: int = 4096,
              memory_budget_bytes: Optional[int] = None,
              n_replicas: int = 1, **knobs) -> "MutableIndex":
        """Prepare and shard an initial corpus; keep its raw rows.

        ``ids`` assigns explicit global ids to the rows of ``x`` (strictly
        ascending; default ``0..n_rows-1``). Extra keyword arguments are
        the mutable knobs of :class:`MutableIndex` (compaction thresholds,
        snapshot retention, recovery, tracer, metrics).
        """
        raw = as_csr(x)
        if ids is None:
            ids = np.arange(raw.n_rows, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        _check_ids(ids)
        measure = (metric if isinstance(metric, DistanceMeasure)
                   else make_distance(metric, **(metric_params or {})))
        base = ShardedIndex._from_prepared(
            prepare_operand(raw, measure), ids, measure, n_shards=n_shards,
            placement=placement, engine=engine, devices=devices,
            batch_rows=batch_rows, memory_budget_bytes=memory_budget_bytes,
            n_replicas=n_replicas)
        return cls(base, ids, raw, **knobs)

    # ------------------------------------------------------------------
    # geometry / serving interface shared with ShardedIndex
    # ------------------------------------------------------------------
    @property
    def measure(self) -> DistanceMeasure:
        return self._base.measure

    @property
    def metric(self) -> str:
        return self._base.measure.name

    @property
    def engine(self) -> str:
        return self._base.engine

    @property
    def generation(self) -> int:
        """Completed compactions since the initial build."""
        return self._generation

    @property
    def n_cols(self) -> int:
        return self._base.n_cols

    @property
    def n_rows(self) -> int:
        """Live (visible) rows — deletions excluded, upserts counted once."""
        if "n_rows" not in self._cache:
            self._cache["n_rows"] = int(self.live_ids().size)
        return self._cache["n_rows"]

    @property
    def n_base_shards(self) -> int:
        return self._base.n_shards

    @property
    def n_shards(self) -> int:
        """Base shards plus the single delta pseudo-shard (constant across
        compactions, so a Server's replica router stays correctly sized)."""
        return self._base.n_shards + 1

    @property
    def n_replicas(self) -> int:
        return self._base.n_replicas

    @property
    def batch_rows(self) -> int:
        return self._base.batch_rows

    @property
    def memory_budget_bytes(self) -> Optional[int]:
        return self._base.memory_budget_bytes

    @property
    def base(self) -> ShardedIndex:
        """The frozen base generation (swapped atomically on compaction)."""
        return self._base

    @property
    def delta_rows(self) -> int:
        """Rows currently served from the delta levels (memtable + sealed)."""
        return int(self._delta_shard().n_rows)

    @property
    def tombstone_count(self) -> int:
        count = len(self._mem_tombstones)
        if self._sealed is not None:
            count += len(self._sealed.tombstones)
        return count

    @property
    def pending_compaction(self) -> bool:
        """True while a faulted compaction is waiting to be resumed."""
        return self._pending is not None

    @property
    def shards(self) -> Tuple[Shard, ...]:
        return tuple(self._base.shards) + (self._delta_shard(),)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MutableIndex({self.metric}, live={self.n_rows}, "
                f"gen={self._generation}, base_shards={self.n_base_shards}, "
                f"delta_rows={self.delta_rows}, "
                f"tombstones={self.tombstone_count})")

    def prepare_queries(self, x) -> PreparedOperand:
        """Prepare a query block once for all shards (transform + norms)."""
        if self.n_rows == 0:
            raise ValueError(
                "the mutable index has no live rows (every row was "
                "deleted); upsert before querying")
        return self._base.prepare_queries(x)

    def shard_k(self, shard_id: int, k: int) -> int:
        """Per-shard selection width: base shards widen ``k`` by the
        suppressed ids they own, so at least ``min(k, live-in-shard)``
        live candidates survive the masking — the invariant bit-identity
        of the cross-generation merge rests on."""
        shard = self.shards[shard_id]
        if shard_id >= self._base.n_shards:
            return min(int(k), shard.n_rows)
        widened = int(k) + int(self._suppressed_in_shard(shard_id).size)
        return min(widened, shard.n_rows)

    def filter_shard_topk(self, shard_id: int, distances: np.ndarray,
                          global_ids: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Mask a base shard's tombstoned/superseded candidates to the
        ``(+inf, SUPPRESSED_ID)`` sentinel (delta candidates pass)."""
        if shard_id >= self._base.n_shards:
            return distances, global_ids
        return suppress_pairs(distances, global_ids,
                              self._suppressed_in_shard(shard_id))

    #: The shard plan and fan-out paths are the frozen index's, run
    #: through this overlay's widened ``shard_k`` and sentinel masking;
    #: empty generations (a drained delta) are skipped. ``kneighbors`` is
    #: bit-identical to a fresh :class:`~repro.neighbors.NearestNeighbors`
    #: fit of the live corpus for any ``n_workers`` and compaction state.
    shard_plan = ShardedIndex.shard_plan
    query_shard = ShardedIndex.query_shard
    kneighbors = ShardedIndex.kneighbors

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def upsert(self, ids, rows) -> None:
        """Insert or overwrite rows by global id (raw, pre-transform
        values — exactly what a fresh fit would ingest)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        csr = as_csr(rows)
        if csr.n_rows != ids.size:
            raise ValueError(
                f"got {ids.size} ids for {csr.n_rows} rows")
        if csr.n_cols != self.n_cols:
            raise ShapeMismatchError(
                f"upsert rows have {csr.n_cols} columns but the index was "
                f"built over {self.n_cols}")
        if ids.size == 0:
            return
        _check_ids(np.sort(ids))
        with self._lock:
            for j in range(ids.size):
                gid = int(ids[j])
                indices, values = csr.row(j)
                self._mem_latest[gid] = self._mem.append(indices, values)
                self._mem_tombstones.discard(gid)
            self._touch(upserted=ids.size)

    def delete(self, ids) -> None:
        """Tombstone rows by global id (idempotent; unknown ids are
        blind tombstones and simply never match)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return
        _check_ids(np.unique(ids))
        with self._lock:
            for gid in ids:
                gid = int(gid)
                self._mem_latest.pop(gid, None)
                self._mem_tombstones.add(gid)
            self._touch(deleted=ids.size)

    # ------------------------------------------------------------------
    # visibility
    # ------------------------------------------------------------------
    def live_ids(self) -> np.ndarray:
        """Global ids visible to queries, ascending."""
        suppressed = self._suppressed_for_base()
        if suppressed.size:
            base_live = self._base_ids[
                ~np.isin(self._base_ids, suppressed)]
        else:
            base_live = self._base_ids
        delta = self._delta_visible_ids()
        if delta.size == 0:
            return base_live
        return np.sort(np.concatenate([base_live, delta]))

    def materialize(self) -> Tuple[np.ndarray, CSRMatrix]:
        """The live corpus as ``(ids, raw rows)``, ascending by id —
        exactly the matrix a fresh fit would be given."""
        ids = self.live_ids()
        return ids, self._gather_raw(ids)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, *, now_ms: Optional[float] = None,
                placement: Optional[str] = None,
                n_shards: Optional[int] = None, devices=None,
                reason: str = "manual",
                fault_injector: Optional[FaultInjector] = None,
                recovery: Optional[RecoveryPolicy] = None,
                ) -> CompactionReport:
        """Fold the delta levels into a new base generation.

        The next generation is cut once, as a fresh build of the live
        corpus would cut it; its shard builds are then charged to the
        simulated clock one at a time under ``recovery`` (default: the
        index's policy): classified faults retry with simulated backoff
        up to ``max_retries``; exhaustion raises
        :class:`~repro.errors.CompactionFaultError` with the shard
        watermark and keeps the pending state — serving continues from
        the old generation, and the next :meth:`compact` call **resumes**
        at the watermark (a fresh call-level fault injector and retry
        budget, mirroring the server's escalation ladder).

        ``placement`` / ``n_shards`` / ``devices`` re-target the new
        generation (:meth:`rebalance` uses this); when a compaction
        changes the *shard count*, any :class:`~repro.serve.Server` built
        over this index must be recreated (its replica router is sized at
        construction).
        """
        recovery = recovery if recovery is not None else self.recovery
        with self._lock:
            if now_ms is not None:
                self._now_ms = max(self._now_ms, float(now_ms))
            if self._pending is None:
                noop = self._start_compaction(placement, n_shards,
                                              devices, reason)
                if noop is not None:       # nothing to do
                    return self._completed(noop)
                resumed = False
            else:
                if (placement is not None or n_shards is not None
                        or devices is not None):
                    raise ValueError(
                        "cannot re-target a pending compaction; resume it "
                        "(compact() with no layout arguments) first")
                resumed = True
                self._obs.record(self._pending)
            return self._run_compaction(resumed, fault_injector, recovery)

    def maybe_compact(self, now_ms: float, **kwargs,
                      ) -> Optional[CompactionReport]:
        """Simulated-clock compaction driver: resume a faulted compaction,
        or start one when the delta outgrows ``compact_threshold_rows``
        or ``compact_interval_ms`` has elapsed since the last one."""
        with self._lock:
            self._now_ms = max(self._now_ms, float(now_ms))
            if self._pending is not None:
                return self.compact(now_ms=now_ms, **kwargs)
            dirty = len(self._mem_latest) + len(self._mem_tombstones)
            if dirty == 0:
                return None
            if dirty >= self.compact_threshold_rows:
                reason = "delta_rows"
            elif (self.compact_interval_ms is not None
                  and self._now_ms - self._last_compact_ms
                  >= self.compact_interval_ms):
                reason = "interval"
            else:
                return None
            return self.compact(now_ms=now_ms, reason=reason, **kwargs)

    def imbalance(self) -> float:
        """Live-nnz skew across base shards: ``max/mean - 1`` (0 = even).

        Tombstones and superseded rows don't count — they are exactly the
        degree drift that breaks a once-balanced placement."""
        loads = []
        suppressed = self._suppressed_for_base()
        for shard in self._base.shards:
            degrees = shard.operand.csr.row_degrees()
            if suppressed.size:
                degrees = degrees[~np.isin(shard.global_ids, suppressed)]
            loads.append(float(degrees.sum()))
        loads = np.asarray(loads)
        mean = loads.mean()
        if mean <= 0.0:
            return 0.0
        return float(loads.max() / mean - 1.0)

    def needs_rebalance(self, threshold: float = 0.5) -> bool:
        return self.n_base_shards > 1 and self.imbalance() > threshold

    def rebalance(self, *, now_ms: Optional[float] = None,
                  **kwargs) -> CompactionReport:
        """Compact onto ``degree_balanced`` placement (degree drift
        repair)."""
        return self.compact(now_ms=now_ms, placement="degree_balanced",
                            reason="rebalance", **kwargs)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, directory) -> Path:
        """Write one rolling versioned snapshot of the live logical state.

        The file records raw rows + ids + config (not the LSM split), so
        restoring is equivalent to restoring-then-compacting — queries
        are bit-identical either way. Retention keeps the newest
        ``snapshot_retention`` versions and unlinks older files.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            ids, raw = self.materialize()
            if ids.size == 0:
                raise ValueError(
                    "cannot snapshot an index with zero live rows; upsert "
                    "before snapshotting")
            version = self._snapshot_version
            self._snapshot_version += 1
            meta = {
                "format": MUTABLE_SNAPSHOT_VERSION,
                "snapshot_version": version,
                **index_config(self._base, ids.size),
                "generation": self._generation,
                "compact_threshold_rows": self.compact_threshold_rows,
                "compact_interval_ms": self.compact_interval_ms,
                "snapshot_retention": self.snapshot_retention,
            }
            arrays = {
                "meta": np.frombuffer(
                    json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                "ids": ids,
                "indptr": raw.indptr,
                "indices": raw.indices,
                "data": raw.data,
            }
            path = directory / f"mutable-{version:06d}.npz"
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
            self._obs.record(self, snapshot=path)
            for old in self.list_snapshots(directory)[
                    :-self.snapshot_retention]:
                (directory / f"mutable-{old:06d}.npz").unlink()
            return path

    @staticmethod
    def list_snapshots(directory) -> List[int]:
        """Retained snapshot versions in ``directory``, ascending."""
        directory = Path(directory)
        if not directory.is_dir():
            return []
        versions = []
        for entry in directory.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                versions.append(int(match.group(1)))
        return sorted(versions)

    @classmethod
    def restore(cls, directory, *, version: Optional[int] = None,
                **knobs) -> "MutableIndex":
        """Point-in-time recovery: rebuild the index from a retained
        snapshot (default: the newest). Malformed snapshots raise
        :class:`~repro.errors.SnapshotFormatError` naming the bad field.
        """
        directory = Path(directory)
        versions = cls.list_snapshots(directory)
        if not versions:
            raise SnapshotFormatError(
                f"no mutable snapshots found in {str(directory)!r}")
        if version is None:
            version = versions[-1]
        elif version not in versions:
            raise SnapshotFormatError(
                f"snapshot version {version} not retained in "
                f"{str(directory)!r}; available: {versions}")
        path = directory / f"mutable-{version:06d}.npz"
        arrays = load_snapshot_arrays(path)
        meta = parse_snapshot_meta(
            arrays, path, expected_version=MUTABLE_SNAPSHOT_VERSION,
            version_field="format")
        measure, n_rows, n_cols, layout = read_index_config(meta, path)
        generation = require_meta_field(meta, "generation", int, path)
        snapshot_version = require_meta_field(
            meta, "snapshot_version", int, path)
        if "ids" not in arrays:
            raise SnapshotFormatError(
                f"snapshot {path!r} is missing array 'ids'")
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        if ids.ndim != 1 or ids.size != n_rows:
            raise SnapshotFormatError(
                f"snapshot {path!r} array 'ids' has {ids.size} entries for "
                f"{n_rows} rows")
        try:
            _check_ids(ids)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"snapshot {path!r} array 'ids' is invalid: {exc}") from exc
        raw = build_snapshot_csr(arrays, n_rows, n_cols, path)
        layout["n_shards"], layout["devices"] = _fit_shards(
            layout["n_shards"], layout["devices"], n_rows)
        base = ShardedIndex._from_prepared(prepare_operand(raw, measure),
                                           ids, measure, **layout)
        knobs.setdefault("compact_threshold_rows",
                         require_meta_field(meta, "compact_threshold_rows",
                                            int, path, default=256))
        knobs.setdefault("compact_interval_ms",
                         require_meta_field(meta, "compact_interval_ms",
                                            (int, float, type(None)), path,
                                            default=None))
        knobs.setdefault("snapshot_retention",
                         require_meta_field(meta, "snapshot_retention", int,
                                            path, default=4))
        return cls(base, ids, raw, generation=generation,
                   next_snapshot_version=snapshot_version + 1, **knobs)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touch(self, **change) -> None:
        """A visible mutation: drop the cached views, record the new
        state."""
        self._cache.clear()
        self._obs.record(self, **change)

    def _suppressed_for_base(self) -> np.ndarray:
        """Sorted ids whose base-generation rows must not be served."""
        if "suppressed" not in self._cache:
            suppressed: Set[int] = set(self._mem_latest)
            suppressed |= self._mem_tombstones
            if self._sealed is not None:
                suppressed.update(int(i) for i in self._sealed.ids)
                suppressed |= set(self._sealed.tombstones)
            self._cache["suppressed"] = np.fromiter(
                sorted(suppressed), dtype=np.int64, count=len(suppressed))
        return self._cache["suppressed"]

    def _suppressed_in_shard(self, shard_id: int) -> np.ndarray:
        key = ("suppressed", shard_id)
        if key not in self._cache:
            self._cache[key] = np.intersect1d(
                self._base.shards[shard_id].global_ids,
                self._suppressed_for_base(), assume_unique=True)
        return self._cache[key]

    def _delta_visible_ids(self) -> np.ndarray:
        visible: Set[int] = set(self._mem_latest)
        if self._sealed is not None:
            for gid in self._sealed.ids:
                gid = int(gid)
                if (gid not in self._mem_latest
                        and gid not in self._mem_tombstones):
                    visible.add(gid)
        return np.fromiter(sorted(visible), dtype=np.int64,
                           count=len(visible))

    def _delta_shard(self) -> Shard:
        """The delta pseudo-shard."""
        if "delta" not in self._cache:
            ids = self._delta_visible_ids()
            self._cache["delta"] = Shard(
                shard_id=self._base.n_shards, global_ids=ids,
                operand=prepare_operand(self._gather_raw(ids), self.measure),
                device=self._delta_device)
        return self._cache["delta"]

    def _gather_raw(self, ids: np.ndarray) -> CSRMatrix:
        """Raw rows for the given live ids (newest version of each)."""
        if ids.size == 0:
            return CSRMatrix.empty((0, self.n_cols))
        sealed_ids = (set(int(i) for i in self._sealed.ids)
                      if self._sealed is not None else set())
        from_mem, from_sealed, from_base = [], [], []
        for gid in ids:
            gid = int(gid)
            if gid in self._mem_latest:
                from_mem.append(gid)
            elif gid in sealed_ids:
                from_sealed.append(gid)
            else:
                from_base.append(gid)
        parts_ids: List[np.ndarray] = []
        parts: List[CSRMatrix] = []
        if from_base:
            gids = np.asarray(from_base, dtype=np.int64)
            positions = np.searchsorted(self._base_ids, gids)
            parts_ids.append(gids)
            parts.append(self._base_raw.take_rows(positions))
        if from_sealed:
            gids = np.asarray(from_sealed, dtype=np.int64)
            positions = np.searchsorted(self._sealed.ids, gids)
            parts_ids.append(gids)
            parts.append(self._sealed.raw.take_rows(positions))
        if from_mem:
            gids = np.asarray(from_mem, dtype=np.int64)
            parts_ids.append(gids)
            parts.append(self._mem.gather(
                np.asarray([self._mem_latest[int(g)] for g in gids],
                           dtype=np.int64)))
        stacked = parts[0] if len(parts) == 1 else vstack(parts)
        order = np.argsort(np.concatenate(parts_ids), kind="stable")
        return stacked.take_rows(order)

    def _seal_memtable(self) -> None:
        """Freeze the memtable into the sealed delta level."""
        ids = np.fromiter(sorted(self._mem_latest), dtype=np.int64,
                          count=len(self._mem_latest))
        raw = self._mem.gather(
            np.asarray([self._mem_latest[int(g)] for g in ids],
                       dtype=np.int64))
        self._sealed = _SealedDelta(
            ids=ids, raw=raw, tombstones=frozenset(self._mem_tombstones))
        self._mem = CSRRowBuilder(self.n_cols)
        self._mem_latest = {}
        self._mem_tombstones = set()
        self._touch()

    def _start_compaction(self, placement, n_shards, devices,
                          reason: str) -> Optional[CompactionReport]:
        """Materialize the live corpus, cut the next generation, then seal
        the memtable; returns a no-op report when there is nothing to
        absorb and no re-targeting was requested. A refused layout leaves
        the index as it was."""
        placement = (self._base.placement if placement is None
                     else placement)
        n_shards = (self._base.n_shards if n_shards is None
                    else int(n_shards))
        dirty = len(self._mem_latest) + len(self._mem_tombstones)
        if (dirty == 0 and placement == self._base.placement
                and n_shards == self._base.n_shards and devices is None):
            report = CompactionReport(
                generation=self._generation, reason=reason,
                n_shards=self._base.n_shards,
                placement=self._base.placement, live_rows=self.n_rows,
                absorbed_rows=0, absorbed_tombstones=0,
                simulated_seconds=0.0, started_ms=self._now_ms,
                completed_ms=self._now_ms, noop=True)
            return report
        ids = self.live_ids()
        if ids.size == 0:
            raise ValueError(
                "cannot compact an index with zero live rows; upsert "
                "before compacting")
        n_shards, kept = _fit_shards(
            n_shards, [s.device for s in self._base.shards], ids.size)
        if devices is None:
            devices = kept
        raw = self._gather_raw(ids)
        index = ShardedIndex._from_prepared(
            prepare_operand(raw, self.measure), ids, self.measure,
            n_shards=n_shards, placement=placement, engine=self.engine,
            devices=devices, batch_rows=self.batch_rows,
            memory_budget_bytes=self.memory_budget_bytes,
            n_replicas=self.n_replicas)
        self._pending = _PendingCompaction(
            reason=reason, ids=ids, raw=raw, index=index,
            started_ms=self._now_ms, absorbed_rows=len(self._mem_latest),
            absorbed_tombstones=len(self._mem_tombstones))
        self._seal_memtable()
        return None

    def _completed(self, report: CompactionReport, span=NULL_SPAN,
                   sim_seconds: float = 0.0) -> CompactionReport:
        """Ledger and record one completed (or no-op) compaction."""
        self.compaction_reports.append(report)
        self._obs.record(report, span=span, sim_seconds=sim_seconds,
                         ordinal=len(self.compaction_reports))
        return report

    def _run_compaction(self, resumed: bool,
                        fault_injector: Optional[FaultInjector],
                        recovery: RecoveryPolicy) -> CompactionReport:
        pending = self._pending
        resumed_from = pending.watermark
        n_shards = pending.index.n_shards
        span = self.tracer.span(
            "mutable.compact", "compact", generation=self._generation + 1,
            reason=pending.reason, n_shards=n_shards,
            resumed=resumed, watermark=resumed_from)
        seconds_this_call = 0.0
        with span:
            while pending.watermark < n_shards:
                seconds = self._build_one_shard(
                    pending, fault_injector, recovery, span,
                    seconds_this_call)
                pending.watermark += 1
                pending.simulated_seconds += seconds
                seconds_this_call += seconds
            self._swap_generation(pending)
        return self._completed(CompactionReport(
            generation=self._generation, reason=pending.reason,
            n_shards=n_shards, placement=pending.index.placement,
            live_rows=int(pending.ids.size),
            absorbed_rows=pending.absorbed_rows,
            absorbed_tombstones=pending.absorbed_tombstones,
            simulated_seconds=pending.simulated_seconds,
            started_ms=pending.started_ms, completed_ms=self._now_ms,
            n_retries=pending.n_retries, resumed=resumed,
            resumed_from_watermark=resumed_from,
            fault_log=tuple(pending.fault_log)), span, seconds_this_call)

    def _build_one_shard(self, pending: _PendingCompaction,
                         fault_injector: Optional[FaultInjector],
                         recovery: RecoveryPolicy, span,
                         seconds_before: float) -> float:
        """Charge the build of the next generation's shard at the
        watermark under the retry ladder; returns its simulated
        seconds."""
        shard_index = pending.watermark
        seconds = 0.0
        attempt = 0

        def log(kind: FaultKind, action: str, wait: float = 0.0):
            event = FaultEvent(tile_index=shard_index, attempt=attempt,
                               depth=0, kind=kind, action=action,
                               detail="compaction.build_shard", seconds=wait)
            pending.fault_log.append(event)
            return event

        while True:
            fault = None
            if fault_injector is not None:
                site = fault_injector.site_faults(shard_index, attempt, 0)
                if site.slow_seconds:
                    seconds += site.slow_seconds
                    log(FaultKind.SLOW, "slowed", site.slow_seconds)
                fault = site.launch_fault or site.kernel_fault
            if fault is None:
                break
            exc = site.error(fault.kind)
            log(fault.kind, "injected")
            # Compaction has a single recovery rung — retry with backoff —
            # so every *classifiable* fault retries and only an exhausted
            # budget (or an unclassifiable error) aborts resumably.
            if (recovery.classify(exc) is None
                    or attempt >= recovery.max_retries):
                log(fault.kind, "unabsorbed")
                pending.simulated_seconds += seconds
                err = CompactionFaultError(
                    f"compaction toward generation {self._generation + 1} "
                    f"aborted building shard {shard_index} "
                    f"(watermark {shard_index}/{pending.index.n_shards}): "
                    f"{exc}",
                    watermark=shard_index,
                    fault_log=tuple(pending.fault_log), cause=exc)
                self._obs.record(err, span=span,
                                 sim_seconds=seconds_before + seconds)
                raise err
            backoff = recovery.backoff_seconds(attempt + 1)
            seconds += backoff
            pending.n_retries += 1
            self._obs.record(log(fault.kind, "retried", backoff),
                             site="compaction")
            attempt += 1
        shard = pending.index.shards[shard_index]
        return seconds + (_BUILD_SECONDS_PER_ROW * shard.n_rows
                          + _BUILD_SECONDS_PER_NNZ * shard.nnz)

    def _swap_generation(self, pending: _PendingCompaction) -> None:
        """Atomically promote the next generation to the new base."""
        self._base = pending.index
        self._base_ids = pending.ids
        self._base_raw = pending.raw
        self._sealed = None
        self._pending = None
        self._generation += 1
        self._now_ms += pending.simulated_seconds * 1e3
        self._last_compact_ms = self._now_ms
        self._touch()


def _fit_shards(n_shards: int, devices: list, n_rows: int):
    """At most one shard per row: ``(n_shards, devices)`` with the count
    capped at ``n_rows``, keeping ``devices`` (one per current shard) when
    the count matches them and putting every shard on the first one
    otherwise."""
    n_shards = min(n_shards, n_rows)
    return n_shards, (devices if n_shards == len(devices) else devices[0])


def _check_ids(ids: np.ndarray) -> None:
    """Validate an id array: 1-D, strictly ascending, within
    [0, SUPPRESSED_ID)."""
    if ids.ndim != 1:
        raise ValueError("ids must be 1-D")
    if ids.size == 0:
        return
    if ids.min() < 0 or ids.max() >= int(SUPPRESSED_ID):
        raise ValueError(
            f"ids must be within [0, {int(SUPPRESSED_ID)}), got range "
            f"[{ids.min()}, {ids.max()}]")
    if ids.size > 1 and (np.diff(ids) <= 0).any():
        raise ValueError("ids contain duplicates or are not ascending")
