"""Algorithm 3: the load-balanced hybrid CSR+COO SPMV kernel.

The paper's winning design (§3.3): one thread block stages a row of A in
shared memory (dense when the dimensionality allows, hash-table-sparsified
otherwise), then all threads stream B's nonzeros — viewed through a COO row
index so the work is a flat, uniformly-partitioned stream — applying ⊗ to
each element against the staged row and folding results with a warp-level
segmented reduction keyed on B's row ids, with one atomic ⊕ per segment
leader.

NAMM semirings take **two passes** (§3.3.1): the first covers ``a ∩ b`` and
``a̅ ∩ b``; the second commutes A and B and skips the already-covered
intersection, supplying ``a ∩ b̅``.

The numeric result comes from :mod:`repro.kernels.functional` (identical
math, vectorized); this module's job is to *count* the schedule — loads,
shared-memory traffic, probe chains, bank conflicts, atomics — exactly as
the simulated device would see it, so the cost model can price the design
against the naive alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.semiring import Semiring
from repro.errors import KernelLaunchError
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.memory import (
    bank_conflicts_for_offsets,
    coalesced_transactions,
    uncoalesced_transactions,
)
from repro.gpusim.specs import DeviceSpec, VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.kernels.base import KernelResult, PairwiseKernel, product_cost_profile
from repro.kernels.bloom_filter import BlockBloomFilter
from repro.kernels.hash_table import ENTRY_BYTES, BlockHashTable
from repro.kernels.strategy import (
    DENSE_ITEM_BYTES,
    RowCacheStrategy,
    choose_strategy,
    hash_capacity,
    max_entries_per_block,
    plan_partitions,
)
from repro.sparse.csr import CSRMatrix

__all__ = ["LoadBalancedCooKernel", "PassProfile"]


@dataclass
class PassProfile:
    """Diagnostics of one SPMV pass (exposed for the ablation benches)."""

    strategy: RowCacheStrategy
    n_blocks: int
    smem_per_block: int
    hit_rate: float
    mean_probe_per_lookup: float
    mean_probe_per_insert: float
    bloom_false_positive_rate: float = 0.0
    staged_entries: int = 0
    n_partitioned_rows: int = 0
    #: load factor of every sampled hash-table build (hash strategy)
    load_factors: Tuple[float, ...] = ()


def _total_intersections(a: CSRMatrix, b: CSRMatrix) -> float:
    """Exact count of co-occurring (row_a, row_b, column) triples, via the
    column-degree product identity (O(k), no pairwise work)."""
    k = a.n_cols
    ca = np.bincount(a.indices, minlength=k) if a.nnz else np.zeros(k)
    cb = np.bincount(b.indices, minlength=k) if b.nnz else np.zeros(k)
    return float(np.dot(ca.astype(np.float64), cb.astype(np.float64)))


def _stream_cost(kind: str, streamed: CSRMatrix, spec: DeviceSpec,
                 count: Callable[[CSRMatrix, DeviceSpec], float]) -> float:
    """``count(streamed, spec)``, memoized on ``streamed`` itself.

    A pass derives its bank conflicts and segment-leader atomics from the
    streamed operand alone, and a resident corpus is streamed by every
    query batch as the same :class:`CSRMatrix`: kept on that object under
    ``(kind, warp size, bank count)``, it is counted once, not once per
    batch. The memo is created by the first count, as the transpose is
    built by the first call; a matrix made from another (a slice, copy or
    transpose) starts without one, so an equal structure held by another
    object is counted again. A hit returns the float a recount gives. Two
    threads may count at once; both get the same float, so that race is
    harmless.
    """
    memo = streamed._stream_costs
    if memo is None:
        memo = streamed._stream_costs = {}
    key = (kind, spec.warp_size, spec.smem_banks)
    if key not in memo:
        memo[key] = count(streamed, spec)
    return memo[key]


class LoadBalancedCooKernel(PairwiseKernel):
    """The paper's primitive: hybrid CSR+COO SPMV with a staged row cache."""

    name = "hybrid_coo"
    row_cache_strategies = ("auto", "dense", "hash", "bloom")
    tunable = True
    #: threads per block: one block stages one row (or row segment) of
    #: the cached operand and streams the other
    BLOCK_THREADS = 1024
    #: paper: "our design uses less than 32" registers per thread
    REGS_PER_THREAD = 31
    #: staged blocks whose hash tables the probe sampler builds
    STATS_SAMPLE_ROWS = 64
    #: streamed column ids the probe sampler looks up in those tables
    STATS_SAMPLE_QUERIES = 32768
    #: seed of the probe sampler's generator, drawn afresh per schedule
    RNG_SEED = 0

    def __init__(self, spec: DeviceSpec = VOLTA_V100, *,
                 row_cache: str = "auto"):
        super().__init__(spec)
        if row_cache != "auto":
            row_cache = RowCacheStrategy(row_cache)
        self.row_cache = row_cache

    # ------------------------------------------------------------------
    def schedule(self, a: CSRMatrix, b: CSRMatrix,
                 semiring: Semiring) -> LaunchSchedule:
        """Pass 1 stages A and streams B; NAMM semirings add pass 2, which
        stages B and streams A (§3.3.1). The hash-probe sampler draws from
        a generator seeded afresh per schedule, so equal operands always
        give equal schedules."""
        rng = np.random.default_rng(self.RNG_SEED)
        launches = [self._pass(a, b, semiring, rng, second_pass=False)]
        if semiring.requires_union:
            launches.append(self._pass(b, a, semiring, rng, second_pass=True))
        # Output: the dense m x n block is written coalesced once.
        written = KernelStats(gmem_transactions=coalesced_transactions(
            a.n_rows * b.n_rows, itemsize=4))
        return LaunchSchedule(tuple(launches), unpriced=written)

    # Kept on the class: benchmarks/e2e times it as the kernels.engine layer.
    def run(self, a: CSRMatrix, b: CSRMatrix, semiring: Semiring,
            log: Optional[list] = None) -> KernelResult:
        return super().run(a, b, semiring, log)

    # ------------------------------------------------------------------
    def _resolve_strategy(self, n_cols: int) -> RowCacheStrategy:
        if self.row_cache == "auto":
            return choose_strategy(self.spec, n_cols)
        return self.row_cache

    def _pass(self, staged: CSRMatrix, streamed: CSRMatrix,
              semiring: Semiring, rng: np.random.Generator, *,
              second_pass: bool) -> Launch:
        """One SPMV pass: ``staged`` rows live in shared memory while
        ``streamed``'s nonzeros flow through the blocks."""
        spec = self.spec
        strategy = self._resolve_strategy(staged.n_cols)
        stats = KernelStats()
        alu_prod, special_prod = product_cost_profile(semiring)

        degrees = staged.row_degrees()
        plan = None
        if strategy is RowCacheStrategy.DENSE:
            smem = staged.n_cols * DENSE_ITEM_BYTES
            if smem > spec.smem_per_block_max_bytes:
                raise KernelLaunchError(
                    f"dense row cache needs {smem} B shared memory for "
                    f"k={staged.n_cols}; device allows "
                    f"{spec.smem_per_block_max_bytes} B — use the hash "
                    "strategy (paper §3.3.2)")
            n_blocks = staged.n_rows
            block_sizes = degrees
        else:
            cap = hash_capacity(spec) if strategy is RowCacheStrategy.HASH \
                else 0
            max_entries = max_entries_per_block(spec) if cap else \
                self._bloom_max_entries()
            plan = plan_partitions(degrees, max_entries=max_entries)
            n_blocks = plan.n_blocks
            block_sizes = plan.block_sizes
            smem = (cap * ENTRY_BYTES if strategy is RowCacheStrategy.HASH
                    else self._bloom_bits() // 8)

        nnz_s = streamed.nnz
        total_hits = _total_intersections(staged, streamed)
        hit_rate = total_hits / max(1.0, float(staged.n_rows) * nnz_s)

        # --- staged-row load + cache construction (once per block) -------
        staged_elems = float(block_sizes.sum())
        stats.gmem_transactions += coalesced_transactions(
            int(staged_elems) * 2, itemsize=4)  # columns + values
        mean_probe_insert = 0.0
        mean_probe_lookup = 0.0
        bloom_fpr = 0.0
        load_factors: Tuple[float, ...] = ()
        if strategy is RowCacheStrategy.DENSE:
            stats.smem_accesses += staged_elems  # scatter values by column
        elif strategy is RowCacheStrategy.HASH:
            mean_probe_insert, mean_probe_lookup, load_factors = \
                self._sample_hash_probes(staged, streamed, plan, rng)
            stats.smem_accesses += staged_elems  # one write per insert
            stats.probe_steps += staged_elems * mean_probe_insert
        else:  # BLOOM
            stats.smem_accesses += staged_elems * BlockBloomFilter.N_HASHES
            bloom_fpr = BlockBloomFilter.expected_fpr(
                int(degrees.mean()) if degrees.size else 0, self._bloom_bits())

        # --- the streamed sweep (every block reads all of streamed) ------
        lookups = float(n_blocks) * nnz_s
        stats.gmem_transactions += n_blocks * (
            coalesced_transactions(nnz_s, itemsize=4) * 3)  # row, col, val
        if strategy is RowCacheStrategy.DENSE:
            stats.smem_accesses += lookups
            stats.bank_conflicts += n_blocks * _stream_cost(
                "bank_conflicts", streamed, spec, _sample_bank_conflicts)
        elif strategy is RowCacheStrategy.HASH:
            stats.smem_accesses += lookups
            stats.probe_steps += lookups * mean_probe_lookup
        else:  # BLOOM: 2 bit tests; hits + false positives binary-search
            stats.smem_accesses += lookups * BlockBloomFilter.N_HASHES
            mean_deg = float(degrees.mean()) if degrees.size else 0.0
            search_steps = BlockBloomFilter.binary_search_steps(
                int(mean_deg))
            positives = lookups * min(1.0, hit_rate + bloom_fpr)
            stats.gmem_transactions += uncoalesced_transactions(
                int(positives * search_steps))
            stats.uncoalesced_loads += positives * search_steps
            stats.divergent_branches += positives

        # --- ⊗ application + segmented reduction -------------------------
        if second_pass:
            # skip id⊗ for already-covered intersections (§3.3.1): only the
            # misses produce work for ⊕.
            productive = max(0.0, lookups - total_hits)
        else:
            productive = lookups
        stats.alu_ops += productive * alu_prod
        stats.special_ops += productive * special_prod
        stats.alu_ops += lookups * 2.0  # segmented scan compare+fold
        # Segment-leader atomics: exactly one per (warp, streamed row) pair
        # — every block sees the same stream, so count once and multiply.
        stats.atomics += n_blocks * _stream_cost(
            "atomics", streamed, spec, _atomics_per_block)

        # Our primitive's device workspace is nnz(B) (paper §4.3).
        stats.workspace_bytes = max(stats.workspace_bytes, nnz_s * 4.0)

        prof = PassProfile(
            strategy=strategy, n_blocks=int(n_blocks),
            smem_per_block=int(smem), hit_rate=hit_rate,
            mean_probe_per_lookup=mean_probe_lookup,
            mean_probe_per_insert=mean_probe_insert,
            bloom_false_positive_rate=bloom_fpr,
            staged_entries=int(staged_elems),
            n_partitioned_rows=(plan.n_partitioned_rows if plan is not None
                                else 0),
            load_factors=load_factors)
        # Traced, the pass span records the strategy decision and the
        # staging work as child spans, and wraps the launch so its
        # gpusim.launch event lands on it.
        return Launch(
            stats, grid_blocks=prof.n_blocks,
            block_threads=self.BLOCK_THREADS,
            smem_per_block=prof.smem_per_block,
            regs_per_thread=self.REGS_PER_THREAD, profile=prof,
            span="kernel.pass2" if second_pass else "kernel.pass1",
            steps=(("strategy.select", dict(
                       strategy=strategy.value, auto=self.row_cache == "auto",
                       n_cols=staged.n_cols, engine=self.name)),
                   ("rowcache.stage", dict(
                       staged_entries=prof.staged_entries,
                       n_blocks=prof.n_blocks,
                       smem_per_block=prof.smem_per_block,
                       mean_probe_per_insert=round(mean_probe_insert, 4),
                       bloom_false_positive_rate=round(bloom_fpr, 6)))),
            args=dict(strategy=strategy.value, n_blocks=prof.n_blocks,
                      hit_rate=round(hit_rate, 6),
                      mean_probe_per_lookup=round(mean_probe_lookup, 4),
                      n_partitioned_rows=prof.n_partitioned_rows))

    # ------------------------------------------------------------------
    def _bloom_bits(self) -> int:
        """Bloom bit budget: the full-occupancy shared-memory allowance."""
        blocks_needed = max(1, self.spec.max_warps_per_sm * self.spec.warp_size
                            // self.spec.max_threads_per_block)
        return (self.spec.smem_per_sm_bytes // blocks_needed) * 8

    def _bloom_max_entries(self) -> int:
        # Keep the expected FPR modest: <= bits / 10 entries.
        return max(1, self._bloom_bits() // 10)

    def _sample_hash_probes(self, staged: CSRMatrix, streamed: CSRMatrix,
                            plan, rng: np.random.Generator) -> tuple:
        """Simulate real Murmur/linear-probe behaviour on sampled blocks:
        ``(mean probes per insert, mean probes per lookup, load factor of
        each sampled table)``."""
        n_blocks = plan.n_blocks
        if n_blocks == 0 or streamed.nnz == 0:
            return 0.0, 0.0, ()
        sample_ids = np.unique(np.linspace(
            0, n_blocks - 1, num=min(self.STATS_SAMPLE_ROWS, n_blocks),
            dtype=np.int64))
        queries = streamed.indices
        if queries.size > self.STATS_SAMPLE_QUERIES:
            queries = rng.choice(queries, size=self.STATS_SAMPLE_QUERIES,
                                 replace=False)
        cap = hash_capacity(self.spec)
        total_ins = total_ins_probes = 0
        total_q = total_q_probes = 0
        load_factors = []
        block_starts = self._block_entry_starts(staged, plan)
        for t in sample_ids:
            size = int(plan.block_sizes[t])
            lo = int(block_starts[t])
            table = BlockHashTable(cap)
            report = table.build(staged.indices[lo:lo + size],
                                 staged.data[lo:lo + size])
            load_factors.append(table.load_factor)
            total_ins += max(1, report.n_inserted)
            total_ins_probes += report.probe_steps
            _, _, probes = table.lookup(queries)
            total_q += queries.size
            total_q_probes += probes
        return (total_ins_probes / max(1, total_ins),
                total_q_probes / max(1, total_q), tuple(load_factors))

    @staticmethod
    def _block_entry_starts(staged: CSRMatrix, plan) -> np.ndarray:
        """Global offset of each block's first staged nonzero.

        Blocks of the same row are consecutive in the plan, so each block's
        offset within its row is the running size sum since the row's first
        block.
        """
        if plan.n_blocks == 0:
            return np.empty(0, dtype=np.int64)
        cum = np.cumsum(plan.block_sizes) - plan.block_sizes
        first_of_row = np.ones(plan.n_blocks, dtype=bool)
        first_of_row[1:] = plan.block_rows[1:] != plan.block_rows[:-1]
        idx = np.arange(plan.n_blocks, dtype=np.int64)
        first_idx = np.maximum.accumulate(np.where(first_of_row, idx, 0))
        offset_in_row = cum - cum[first_idx]
        return staged.indptr[plan.block_rows] + offset_in_row


def _atomics_per_block(streamed: CSRMatrix, spec: DeviceSpec) -> float:
    """Segment-leader atomics one block issues over the full stream.

    The stream is the streamed matrix's nonzeros in COO row order; a warp's
    chunk issues one atomic per distinct row it covers (§3.3: writes
    bounded by the active warps over each row).
    """
    if streamed.nnz == 0:
        return 0.0
    rows = np.repeat(np.arange(streamed.n_rows, dtype=np.int64),
                     streamed.row_degrees())
    warp_ids = np.arange(streamed.nnz, dtype=np.int64) // spec.warp_size
    pairs = warp_ids * np.int64(streamed.n_rows) + rows
    return float(np.unique(pairs).size)


def _sample_bank_conflicts(streamed: CSRMatrix, spec: DeviceSpec) -> float:
    """Estimate bank-conflict cycles of dense-cache lookups per block."""
    if streamed.nnz == 0:
        return 0.0
    n = min(streamed.nnz, 32 * 2048)
    sample = streamed.indices[:n]
    conflicts = bank_conflicts_for_offsets(
        sample * DENSE_ITEM_BYTES, warp_size=spec.warp_size,
        n_banks=spec.smem_banks, itemsize=DENSE_ITEM_BYTES)
    return conflicts * (streamed.nnz / n)
