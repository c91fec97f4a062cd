"""The resident, immutable, row-sharded k-NN index.

A :class:`ShardedIndex` is the serving layer's fitted state: the corpus is
prepared exactly once (measure pre-transform + expansion row norms, the
same :class:`~repro.plan.PreparedOperand` path the offline estimator
uses), then its rows are partitioned across N simulated devices — either
in contiguous bands or nnz-balanced via
:func:`repro.datasets.degree.degree_balanced_shards`, mirroring the
row-split load-balancing analysis of the sparse-GEMM design-principles
work. Each shard keeps its slice of the prepared operand and norms, so a
query fans out as one :class:`~repro.plan.PairwisePlan` per shard with
zero per-shard re-preparation.

Shard-local row order is always ascending in global ids, which makes
shard-local tie-breaks agree with global tie-breaks; the cross-shard merge
(:meth:`ShardedIndex.merge_shard_topk`) then reproduces the unsharded
``NearestNeighbors.kneighbors`` result bit for bit.

``save()``/``load()`` snapshot the prepared state (values, norms, shard
assignment, config) into a single ``.npz`` so an index is built once and
served forever. The layout fields are written by :func:`index_config` and
read back by :func:`read_index_config`, which the mutable index's
snapshots share.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distances import DistanceMeasure, make_distance
from repro.datasets.degree import degree_balanced_shards
from repro.errors import (
    DeviceConfigError,
    ShapeMismatchError,
    SnapshotFormatError,
)
from repro.gpusim.specs import DeviceSpec, get_device
from repro.neighbors.topk import TopKAccumulator
from repro.plan.autotune import TuningChoice
from repro.plan.consumers import TopKConsumer
from repro.plan.executor import PlanExecutor, fan_out
from repro.plan.pairwise_plan import (
    PairwisePlan,
    PreparedOperand,
    build_pairwise_plan,
    prepare_operand,
    stack_operands,
)
from repro.sparse.convert import as_csr
from repro.sparse.csr import CSRMatrix

__all__ = ["Shard", "ShardedIndex", "PLACEMENTS", "plan_shard_assignment"]

#: Supported row-placement strategies.
PLACEMENTS = ("contiguous", "degree_balanced")

#: Snapshot format version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1

#: Sentinel distinguishing "no default" from "default None" in
#: :func:`require_meta_field`.
_MISSING = object()


@dataclass(frozen=True)
class Shard:
    """One device's slice of the index: prepared rows + their global ids."""

    shard_id: int
    #: global row ids this shard owns, sorted ascending
    global_ids: np.ndarray
    #: prepared rows (transform applied) with norms sliced, not recomputed
    operand: PreparedOperand
    device: DeviceSpec

    @property
    def n_rows(self) -> int:
        return self.operand.n_rows

    @property
    def nnz(self) -> int:
        return self.operand.csr.nnz

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Shard({self.shard_id}, rows={self.n_rows}, "
                f"nnz={self.nnz}, device={self.device.name})")


def plan_shard_assignment(csr: CSRMatrix, n_shards: int,
                          placement: str) -> List[np.ndarray]:
    """Row positions per shard under ``placement`` (ascending per shard).

    ``"contiguous"`` cuts near-equal row bands; ``"degree_balanced"``
    assigns rows greedily so each shard carries a near-equal nnz load.
    Every shard cut goes through it (see :meth:`ShardedIndex.build`), so a
    compacted or restored mutable generation lands on exactly the
    placement a from-scratch build would choose.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; expected "
                         f"one of {PLACEMENTS}")
    if n_shards > csr.n_rows:
        raise ValueError(
            f"cannot cut {csr.n_rows} rows into {n_shards} shards")
    if placement == "contiguous":
        base, extra = divmod(csr.n_rows, n_shards)
        sizes = np.full(n_shards, base, dtype=np.int64)
        sizes[:extra] += 1
        bounds = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        return [np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
                for i in range(n_shards)]
    return degree_balanced_shards(csr, n_shards)


def _resolve_devices(devices, n_shards: int) -> List[DeviceSpec]:
    if devices is None:
        return [get_device("volta")] * n_shards
    if isinstance(devices, (str, DeviceSpec)):
        spec = get_device(devices) if isinstance(devices, str) else devices
        return [spec] * n_shards
    specs = [get_device(d) if isinstance(d, str) else d for d in devices]
    if len(specs) != n_shards:
        raise ValueError(
            f"got {len(specs)} devices for {n_shards} shards; pass one "
            f"spec per shard (or a single spec for all)")
    return specs


class ShardedIndex:
    """A fitted, immutable k-NN index partitioned across simulated devices.

    Build one with :meth:`build`, serve it through
    :class:`~repro.serve.Server` (micro-batched, async) or query it
    directly with :meth:`kneighbors` (synchronous fan-out + merge). The
    index owns no mutable query state, so any number of concurrent
    schedulers may read it.
    """

    def __init__(self, shards: Sequence[Shard], measure: DistanceMeasure,
                 *, engine: str, placement: str, batch_rows: int = 4096,
                 memory_budget_bytes: Optional[int] = None,
                 n_replicas: int = 1):
        if not shards:
            raise ValueError("a ShardedIndex needs at least one shard")
        if n_replicas <= 0:
            raise ValueError(
                f"n_replicas must be positive, got {n_replicas}")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; expected "
                             f"one of {PLACEMENTS}")
        if not isinstance(engine, str):
            raise ValueError(
                "ShardedIndex requires a named engine (a string from "
                "available_engines()); kernel instances are not "
                "snapshot-serializable")
        self.shards: Tuple[Shard, ...] = tuple(shards)
        self.measure = measure
        self.engine = engine
        self.placement = placement
        self.batch_rows = int(batch_rows)
        self.memory_budget_bytes = memory_budget_bytes
        #: sibling copies of every shard available to the serving layer;
        #: replicas hold bit-identical prepared operands, so this is pure
        #: routing capacity, not extra state
        self.n_replicas = int(n_replicas)
        self._n_rows = int(sum(s.n_rows for s in self.shards))
        self._n_cols = self.shards[0].operand.n_cols

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, x, *, metric: str = "euclidean",
              metric_params: Optional[dict] = None, n_shards: int = 2,
              placement: str = "contiguous", engine: str = "hybrid_coo",
              devices=None, batch_rows: int = 4096,
              memory_budget_bytes: Optional[int] = None,
              n_replicas: int = 1) -> "ShardedIndex":
        """Prepare ``x`` once and partition its rows across ``n_shards``.

        ``placement="contiguous"`` cuts near-equal row bands;
        ``"degree_balanced"`` assigns rows greedily so each shard carries a
        near-equal nnz load (Figure 1's skewed degree distributions make
        this the production choice). ``devices`` is one spec/name for all
        shards or a per-shard list. ``n_replicas`` declares how many
        sibling copies of each shard the serving layer may route to (the
        :class:`~repro.serve.Server` fails over between them).
        """
        measure = (metric if isinstance(metric, DistanceMeasure)
                   else make_distance(metric, **(metric_params or {})))
        prepared = prepare_operand(as_csr(x), measure)
        return cls._from_prepared(
            prepared, np.arange(prepared.n_rows, dtype=np.int64), measure,
            n_shards=n_shards, placement=placement, engine=engine,
            devices=devices, batch_rows=batch_rows,
            memory_budget_bytes=memory_budget_bytes, n_replicas=n_replicas)

    @classmethod
    def _from_prepared(cls, prepared: PreparedOperand, ids: np.ndarray,
                       measure: DistanceMeasure, *, n_shards: int,
                       placement: str, engine: str, devices,
                       batch_rows: int, memory_budget_bytes: Optional[int],
                       n_replicas: int) -> "ShardedIndex":
        """Cut a prepared corpus whose row ``i`` has global id ``ids[i]``
        (ascending) into ``n_shards`` shards under ``placement``: the one
        shard constructor behind :meth:`build`, the mutable index's build
        and restore, and its compaction's next generation."""
        assignment = plan_shard_assignment(prepared.csr, n_shards, placement)
        specs = _resolve_devices(devices, n_shards)
        shards = [Shard(shard_id=i, global_ids=ids[positions],
                        operand=prepared.take_rows(positions),
                        device=specs[i])
                  for i, positions in enumerate(assignment)]
        return cls(shards, measure, engine=engine, placement=placement,
                   batch_rows=batch_rows,
                   memory_budget_bytes=memory_budget_bytes,
                   n_replicas=n_replicas)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_rows(self) -> int:
        """Total indexed rows across all shards."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def metric(self) -> str:
        return self.measure.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedIndex({self.measure.name}, "
                f"{self.n_rows}x{self.n_cols}, shards={self.n_shards}, "
                f"placement={self.placement})")

    # ------------------------------------------------------------------
    def prepare_queries(self, x) -> PreparedOperand:
        """Prepare a query block once for all shards (transform + norms)."""
        queries = prepare_operand(as_csr(x), self.measure)
        if queries.n_cols != self.n_cols:
            raise ShapeMismatchError(
                f"queries have {queries.n_cols} columns but the index was "
                f"built over {self.n_cols}")
        return queries

    def shard_plan(self, shard_id: int,
                   queries: PreparedOperand) -> PairwisePlan:
        """The pairwise plan for one shard: queries × the shard's rows.

        With ``engine="auto"`` every shard is tuned *independently*: the
        autotuner probes the shard's own degree distribution, so a
        degree-skewed shard may run merge-path while its uniform siblings
        stay on the hybrid kernel. The decision record is on the returned
        plan's ``tuning``.
        """
        shard = self.shards[shard_id]
        return build_pairwise_plan(
            queries, shard.operand, self.measure, engine=self.engine,
            device=shard.device,
            memory_budget_bytes=self.memory_budget_bytes,
            max_tile_rows_b=self.batch_rows)

    def shard_tunings(self, x) -> List[Optional["TuningChoice"]]:
        """Per-shard autotuner decisions for a query block (one
        :class:`~repro.plan.TuningChoice` per shard, ``None`` entries when
        the index was built with a fixed engine). Diagnostic companion to
        :meth:`kneighbors` — the same plans the fan-out would build."""
        queries = self.prepare_queries(x)
        return [self.shard_plan(i, queries).tuning
                for i in range(self.n_shards)]

    def shard_k(self, shard_id: int, k: int) -> int:
        """Per-shard top-k width for a global ``k``.

        The frozen index simply clamps to the shard's row count; overlays
        with suppressed rows (the mutable index's tombstones and superseded
        generations) widen it so enough live candidates survive the
        per-shard selection.
        """
        return min(int(k), self.shards[shard_id].n_rows)

    def filter_shard_topk(self, shard_id: int, distances: np.ndarray,
                          global_ids: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Post-selection hook applied to a shard's ``(distances, ids)``
        before the cross-shard merge. Identity for the frozen index; the
        mutable overlay masks suppressed candidates to the sentinel here.
        """
        return distances, global_ids

    def query_shard(self, shard_id: int, queries: PreparedOperand,
                    k: int, **executor_kwargs,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k of one shard, with local ids remapped to global.

        Returns ``(distances, global_indices)``; ``k`` is clamped to the
        shard's row count. Extra keyword arguments go to the
        :class:`~repro.plan.PlanExecutor` (recovery, fault injector,
        tracer, metrics).
        """
        shard = self.shards[shard_id]
        plan = self.shard_plan(shard_id, queries)
        consumer = TopKConsumer(self.shard_k(shard_id, k))
        distances, local_idx = PlanExecutor(
            plan, **executor_kwargs).execute(consumer).value
        return self.filter_shard_topk(
            shard_id, distances, shard.global_ids[local_idx])

    @staticmethod
    def merge_shard_topk(parts: Sequence[Tuple[np.ndarray, np.ndarray]],
                         n_rows: int, k: int,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge per-shard ``(distances, global_indices)`` into the global
        k best per row, ties broken by global id — bit-identical to an
        unsharded selection."""
        acc = TopKAccumulator(n_rows, k)
        for distances, indices in parts:
            acc.update_pairs(distances, indices)
        return acc.finalize()

    def kneighbors(self, x, n_neighbors: int = 5, *, n_workers: int = 1,
                   **executor_kwargs) -> Tuple[np.ndarray, np.ndarray]:
        """Synchronous fan-out query: every shard, merged, no queue.

        This is the one-shot path (tests, batch jobs); online traffic goes
        through :class:`~repro.serve.Server`, which adds micro-batching,
        deadlines, and fault handling on top of the same plan machinery.
        Empty shards (a mutable index's drained delta) are skipped.
        """
        if n_neighbors <= 0:
            raise ValueError(
                f"n_neighbors must be positive, got {n_neighbors!r}")
        queries = self.prepare_queries(x)
        k = min(int(n_neighbors), self.n_rows)
        live = [i for i, shard in enumerate(self.shards) if shard.n_rows]
        parts = list(fan_out(
            lambda i: self.query_shard(i, queries, k, **executor_kwargs),
            live, n_workers))
        return ShardedIndex.merge_shard_topk(parts, queries.n_rows, k)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Snapshot the prepared index (values, norms, shards, config).

        The snapshot is a single ``.npz``; loading it skips ingestion, the
        measure transform, and every norm reduction — build once, serve
        forever.
        """
        order = np.argsort(np.concatenate([s.global_ids
                                           for s in self.shards]))
        full = stack_operands([s.operand for s in self.shards]
                              ).take_rows(order)
        meta = {"version": SNAPSHOT_VERSION,
                **index_config(self, self.n_rows),
                "norm_kinds": sorted(full.norms or ())}
        arrays = {
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            "indptr": full.csr.indptr,
            "indices": full.csr.indices,
            "data": full.csr.data,
        }
        for kind, values in (full.norms or {}).items():
            arrays[f"norm_{kind}"] = values
        for shard in self.shards:
            arrays[f"shard_{shard.shard_id}_ids"] = shard.global_ids
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "ShardedIndex":
        """Rebuild a served index from a :meth:`save` snapshot.

        Every malformation — a truncated or corrupted archive, metadata
        fields missing or of the wrong type, version skew, absent or
        inconsistently sized arrays — raises
        :class:`~repro.errors.SnapshotFormatError` naming the bad field;
        no raw ``KeyError``/``ValueError`` escapes.
        """
        arrays = load_snapshot_arrays(path)
        meta = parse_snapshot_meta(arrays, path,
                                   expected_version=SNAPSHOT_VERSION)
        # Snapshots written before replication carry no n_replicas.
        meta.setdefault("n_replicas", 1)
        measure, n_rows, n_cols, layout = read_index_config(meta, path)
        # The shards come from the stored id arrays, one per device.
        devices = layout.pop("devices")
        del layout["n_shards"]
        norm_kinds = require_meta_field(meta, "norm_kinds", list, path)
        csr = build_snapshot_csr(arrays, n_rows, n_cols, path)
        norms: Optional[Dict[str, np.ndarray]] = None
        if norm_kinds:
            norms = {}
            for kind in norm_kinds:
                key = f"norm_{kind}"
                if key not in arrays:
                    raise SnapshotFormatError(
                        f"snapshot {path!r} is missing array {key!r} "
                        f"promised by field 'norm_kinds'")
                if arrays[key].shape != (n_rows,):
                    raise SnapshotFormatError(
                        f"snapshot {path!r} array {key!r} has shape "
                        f"{arrays[key].shape}, expected ({n_rows},)")
                norms[kind] = arrays[key]
        prepared = PreparedOperand(csr, measure.name, norms)

        shards = []
        seen_ids = []
        for i, device in enumerate(devices):
            key = f"shard_{i}_ids"
            if key not in arrays:
                raise SnapshotFormatError(
                    f"snapshot {path!r} is missing array {key!r}")
            ids = np.asarray(arrays[key], dtype=np.int64)
            if ids.ndim != 1:
                raise SnapshotFormatError(
                    f"snapshot {path!r} array {key!r} must be 1-D")
            if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
                raise SnapshotFormatError(
                    f"snapshot {path!r} array {key!r} has row ids outside "
                    f"[0, {n_rows})")
            seen_ids.append(ids)
            shards.append(Shard(shard_id=i, global_ids=ids,
                                operand=prepared.take_rows(ids),
                                device=device))
        stacked = np.sort(np.concatenate(seen_ids))
        if (stacked.size != n_rows
                or not np.array_equal(stacked, np.arange(n_rows))):
            raise SnapshotFormatError(
                f"snapshot {path!r} shard id arrays do not partition the "
                f"{n_rows} rows (field 'shard_*_ids')")
        return cls(shards, measure, **layout)


def index_config(index: ShardedIndex, n_rows: int) -> dict:
    """The layout fields the frozen and the mutable snapshot share.

    ``n_rows`` is the row count the file holds (the index's rows for a
    frozen snapshot, the live rows for a mutable one). Read back by
    :func:`read_index_config`.
    """
    return {
        "metric": index.measure.name,
        "metric_params": dict(index.measure.params),
        "engine": index.engine,
        "placement": index.placement,
        "batch_rows": index.batch_rows,
        "memory_budget_bytes": index.memory_budget_bytes,
        "n_shards": index.n_shards,
        "n_replicas": index.n_replicas,
        "n_rows": int(n_rows),
        "n_cols": index.n_cols,
        "devices": [s.device.name for s in index.shards],
    }


def read_index_config(meta: dict, path,
                      ) -> Tuple[DistanceMeasure, int, int, dict]:
    """Read and check the fields :func:`index_config` wrote.

    Returns ``(measure, n_rows, n_cols, layout)``, where ``layout`` holds
    the keyword arguments of :meth:`ShardedIndex._from_prepared` with
    ``devices`` resolved to one spec per shard. Every missing, mistyped or
    out-of-range field raises :class:`~repro.errors.SnapshotFormatError`
    naming it.
    """
    def read(key, types):
        return require_meta_field(meta, key, types, path)

    def bad(key, what):
        return SnapshotFormatError(f"snapshot {path!r} field {key!r} {what}")

    metric = read("metric", str)
    metric_params = read("metric_params", dict)
    layout = {"engine": read("engine", str),
              "placement": read("placement", str),
              "batch_rows": read("batch_rows", int),
              "memory_budget_bytes": read("memory_budget_bytes",
                                          (int, type(None))),
              "n_shards": read("n_shards", int),
              "n_replicas": read("n_replicas", int)}
    n_rows = read("n_rows", int)
    n_cols = read("n_cols", int)
    names = read("devices", list)
    if layout["placement"] not in PLACEMENTS:
        raise bad("placement", f"is {layout['placement']!r}; expected one "
                               f"of {PLACEMENTS}")
    for key in ("n_shards", "n_replicas"):
        if layout[key] <= 0:
            raise bad(key, f"must be positive, got {layout[key]}")
    if n_rows <= 0:
        raise bad("n_rows", f"must be positive, got {n_rows}")
    if len(names) != layout["n_shards"]:
        raise bad("devices", f"lists {len(names)} entries for "
                             f"{layout['n_shards']} shards")
    devices = []
    for i, name in enumerate(names):
        try:
            devices.append(get_device(str(name)))
        except DeviceConfigError as exc:
            raise bad(f"devices[{i}]",
                      f"names an unknown device {name!r}") from exc
    layout["devices"] = devices
    try:
        measure = make_distance(metric, **metric_params)
    except Exception as exc:
        raise bad("metric", f"names an unusable measure {metric!r}: "
                            f"{exc}") from exc
    return measure, n_rows, n_cols, layout


def load_snapshot_arrays(path) -> Dict[str, np.ndarray]:
    """Read an ``.npz`` snapshot into a dict, normalizing every failure
    mode of a truncated/corrupted/garbage file to
    :class:`~repro.errors.SnapshotFormatError`."""
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:
        raise SnapshotFormatError(
            f"cannot read index snapshot {path!r}: {exc}") from exc


def parse_snapshot_meta(arrays: Dict[str, np.ndarray], path, *,
                        expected_version: int,
                        version_field: str = "version") -> dict:
    """Decode and version-check the JSON ``meta`` array of a snapshot."""
    if "meta" not in arrays:
        raise SnapshotFormatError(
            f"snapshot {path!r} is missing the 'meta' array")
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(
            f"snapshot {path!r} has no readable metadata") from exc
    if not isinstance(meta, dict):
        raise SnapshotFormatError(
            f"snapshot {path!r} metadata must be a JSON object, got "
            f"{type(meta).__name__}")
    if meta.get(version_field) != expected_version:
        raise SnapshotFormatError(
            f"snapshot {path!r} field {version_field!r} is "
            f"{meta.get(version_field)!r}; this build reads version "
            f"{expected_version}")
    return meta


def require_meta_field(meta: dict, key: str, types, path, *,
                       default=_MISSING):
    """One metadata field, type-checked; absence or a type mismatch raises
    :class:`~repro.errors.SnapshotFormatError` naming the field."""
    if key not in meta:
        if default is not _MISSING:
            return default
        raise SnapshotFormatError(
            f"snapshot {path!r} metadata is missing field {key!r}")
    value = meta[key]
    if not isinstance(value, types):
        wanted = (types.__name__ if isinstance(types, type)
                  else "/".join(t.__name__ for t in types))
        raise SnapshotFormatError(
            f"snapshot {path!r} field {key!r} has type "
            f"{type(value).__name__}, expected {wanted}")
    return value


def build_snapshot_csr(arrays: Dict[str, np.ndarray], n_rows: int,
                       n_cols: int, path) -> CSRMatrix:
    """Reassemble and structurally validate a snapshot's CSR arrays."""
    for key in ("indptr", "indices", "data"):
        if key not in arrays:
            raise SnapshotFormatError(
                f"snapshot {path!r} is missing array {key!r}")
    indptr = arrays["indptr"]
    if indptr.ndim != 1 or indptr.size != n_rows + 1:
        raise SnapshotFormatError(
            f"snapshot {path!r} array 'indptr' has {indptr.size} entries "
            f"for {n_rows} rows (expected {n_rows + 1})")
    nnz = int(indptr[-1]) if indptr.size else 0
    for key in ("indices", "data"):
        if arrays[key].ndim != 1 or arrays[key].size != nnz:
            raise SnapshotFormatError(
                f"snapshot {path!r} array {key!r} has {arrays[key].size} "
                f"entries but 'indptr' promises {nnz}")
    try:
        return CSRMatrix(indptr, arrays["indices"], arrays["data"],
                         (n_rows, n_cols), check=True, sort=False)
    except Exception as exc:
        raise SnapshotFormatError(
            f"snapshot {path!r} CSR arrays are inconsistent: {exc}"
        ) from exc
