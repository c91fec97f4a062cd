"""Row-cache strategy selection and high-degree partitioning.

Section 3.3.2-3.3.3 of the paper: the staged vector lives in shared memory
**dense** when the feature dimensionality fits the full-occupancy budget,
otherwise **sparsified** in a hash table (or bloom filter); rows whose
degree exceeds 50% of the hash-table capacity are **partitioned** uniformly
across multiple blocks, trading extra passes over the streamed operand for
scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from repro.gpusim.specs import DeviceSpec
from repro.kernels.hash_table import ENTRY_BYTES, BlockHashTable

__all__ = ["RowCacheStrategy", "PartitionPlan", "choose_strategy",
           "plan_partitions", "stage_row_partitioned", "DENSE_ITEM_BYTES"]

#: The dense row cache stores one f32 value per feature column.
DENSE_ITEM_BYTES = 4

#: Hash tables degrade past this load factor (paper §3.3.2: "Hash tables
#: have the best performance when the number of entries is less than 50% of
#: the capacity").
HASH_MAX_LOAD = 0.5


class RowCacheStrategy(str, enum.Enum):
    """How the staged row is held in (simulated) shared memory."""

    DENSE = "dense"
    HASH = "hash"
    BLOOM = "bloom"


@dataclass(frozen=True)
class PartitionPlan:
    """The block decomposition of one pass's staged rows.

    ``block_rows[t]`` is the staged row block ``t`` works on and
    ``block_sizes[t]`` the number of that row's nonzeros assigned to it.
    Unpartitioned rows appear exactly once.
    """

    block_rows: np.ndarray
    block_sizes: np.ndarray
    max_entries_per_block: int

    @property
    def n_blocks(self) -> int:
        return int(self.block_rows.size)

    @property
    def n_partitioned_rows(self) -> int:
        """Rows that needed more than one block."""
        _, counts = np.unique(self.block_rows, return_counts=True)
        return int(np.count_nonzero(counts > 1))

    @property
    def extra_blocks(self) -> int:
        """Blocks beyond one-per-row — the §3.3.3 "extra work for scale"."""
        return int(self.n_blocks - np.unique(self.block_rows).size)


def choose_strategy(spec: DeviceSpec, n_cols: int) -> RowCacheStrategy:
    """Pick dense vs hash staging per the paper's §3.3.2 rule.

    Dense staging is preferred (highest throughput, least divergence) while
    the dimensionality fits the *full-occupancy* shared-memory budget; wider
    inputs sparsify into the hash table. Bloom is never auto-selected: the
    paper could not extract a reliable a-priori rule for it, so it stays an
    explicit opt-in.
    """
    if n_cols <= spec.max_dense_dim_full_occupancy(DENSE_ITEM_BYTES):
        return RowCacheStrategy.DENSE
    return RowCacheStrategy.HASH


def hash_capacity(spec: DeviceSpec) -> int:
    """Slots of the full-occupancy per-block hash table."""
    return spec.hash_table_slots(ENTRY_BYTES)


def max_entries_per_block(spec: DeviceSpec) -> int:
    """Nonzeros one block may stage in its hash table (50% load)."""
    return max(1, int(hash_capacity(spec) * HASH_MAX_LOAD))


def plan_partitions(degrees: np.ndarray, max_entries: int) -> PartitionPlan:
    """Split high-degree rows across blocks (paper §3.3.3).

    Rows with ``degree <= max_entries`` get one block; heavier rows are
    divided uniformly into ``ceil(degree / max_entries)`` blocks with
    near-equal shares.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if max_entries <= 0:
        raise ValueError("max_entries must be positive")
    n_parts = np.maximum(1, -(-degrees // max_entries))
    block_rows = np.repeat(np.arange(degrees.size, dtype=np.int64), n_parts)
    # Uniform split: first (degree mod parts) blocks take the extra element.
    base = np.repeat(degrees // n_parts, n_parts)
    remainder = np.repeat(degrees % n_parts, n_parts)
    offsets = _intra_row_offsets(n_parts)
    sizes = base + (offsets < remainder)
    return PartitionPlan(block_rows=block_rows,
                         block_sizes=sizes.astype(np.int64),
                         max_entries_per_block=int(max_entries))


def stage_row_partitioned(cols: np.ndarray, vals: np.ndarray,
                          capacity: int):
    """Stage one row's nonzeros into as many hash tables as its degree needs.

    The safe route around :class:`~repro.errors.HashCapacityError`: the
    row's degree is pre-checked against ``capacity * HASH_MAX_LOAD`` (the
    §3.3.2 50%-load rule) and, when it exceeds it, the row is divided
    uniformly across several blocks via :func:`plan_partitions` — each
    block staging its share in its own table — instead of overflowing a
    single insert.

    Returns ``(tables, reports, plan)``: the per-block
    :class:`~repro.kernels.hash_table.BlockHashTable` instances, their
    :class:`~repro.kernels.hash_table.BuildReport` probe counters, and the
    single-row :class:`PartitionPlan` describing the split (one block, i.e.
    no partitioning, for rows within budget).
    """
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if cols.size != vals.size:
        raise ValueError("cols and vals must have equal length")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    max_entries = max(1, int(capacity * HASH_MAX_LOAD))
    plan = plan_partitions(np.array([cols.size], dtype=np.int64),
                           max_entries=max_entries)
    tables, reports = [], []
    offset = 0
    for size in plan.block_sizes:
        size = int(size)
        table = BlockHashTable(capacity)
        reports.append(table.build(cols[offset:offset + size],
                                   vals[offset:offset + size]))
        tables.append(table)
        offset += size
    return tables, reports, plan


def _intra_row_offsets(n_parts: np.ndarray) -> np.ndarray:
    """0,1,..,p_i-1 for each row i, concatenated (vectorized ramp reset)."""
    total = int(n_parts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(n_parts) - n_parts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, n_parts)
