"""Analytic cost model: kernel statistics → simulated execution time.

The model is intentionally simple and fully documented, because its job is
*relative fidelity*: given two strategies' counted work on the same device,
it must order them the way the paper's V100 ordered them, and preserve rough
magnitudes of the ratios. It is a throughput model with explicit
latency-hiding:

    lane_cycles    = Σ (weight_op × count_op)          (issued lane work)
    compute_time   = lane_cycles / (SMs × issue_lanes × clock × hide_c)
    memory_time    = gmem_transactions × weight_gmem
                     / (SMs × clock × hide_m)
    fixed_time     = launches × launch_overhead / clock
                     + blocks × block_overhead / (SMs × clock)
    simulated_time = max(compute_time, memory_time) + fixed_time

Two facts of SIMT hardware are modeled explicitly:

- **throughput vs residency** — an SM *issues* ``issue_lanes_per_sm``
  (128) lane-ops per cycle regardless of how many of the 64 warps are
  resident; residency exists to hide latency. ``hide_c = min(1, occ/0.5)``:
  half occupancy already saturates issue, less starves it.
- **memory latency hiding** — DRAM bandwidth is only reachable with enough
  outstanding loads; below ~25% occupancy utilization degrades linearly
  (``hide_m = min(1, occ/0.25)``). This is what makes the
  expand-sort-contract kernel's shared-memory-induced occupancy collapse
  expensive even on its memory side (§3.2.1).

Compute and memory overlap (the ``max``), as they do on real hardware;
divergence, bank conflicts, probe chains and sort steps are *serialized*
lane work, so they land in ``lane_cycles`` where they throttle exactly the
kernels that incur them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.gpusim.occupancy import Occupancy, compute_occupancy
from repro.gpusim.specs import DeviceSpec
from repro.gpusim.stats import KernelStats

__all__ = ["CostModel", "SimulatedTime", "OperandProbe", "price_launch"]


@dataclass(frozen=True)
class SimulatedTime:
    """Breakdown of one simulated execution."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    fixed_seconds: float
    occupancy_fraction: float

    #: occupancy below which compute issue starves (``hide_c < 1``)
    COMPUTE_HIDE_KNEE = 0.5
    #: occupancy below which memory latency hiding degrades (``hide_m < 1``)
    MEMORY_HIDE_KNEE = 0.25

    @property
    def bound(self) -> str:
        """Which resource bound the kernel: ``compute`` or ``memory``."""
        return "compute" if self.compute_seconds >= self.memory_seconds \
            else "memory"

    @property
    def limited(self) -> str:
        """Roofline-style attribution: ``compute``, ``memory``, or
        ``occupancy``.

        ``occupancy`` means the binding side's latency hiding is degraded
        — the kernel runs below the knee where residency saturates that
        resource (0.5 for compute issue, 0.25 for memory bandwidth), so
        raising occupancy, not raw throughput, is the lever.
        """
        knee = (self.COMPUTE_HIDE_KNEE if self.bound == "compute"
                else self.MEMORY_HIDE_KNEE)
        return "occupancy" if self.occupancy_fraction < knee else self.bound


class CostModel:
    """Translate :class:`KernelStats` into :class:`SimulatedTime`."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    def simulate(self, stats: KernelStats, *,
                 occupancy: Optional[Occupancy] = None,
                 block_threads: int = 1024,
                 regs_per_thread: int = 32) -> SimulatedTime:
        """Simulated wall time for the counted work.

        When ``occupancy`` is omitted it is derived from ``block_threads``,
        ``regs_per_thread`` and the stats' recorded per-block shared memory.
        """
        spec = self.spec
        w = spec.cost_weights
        if occupancy is None:
            occupancy = compute_occupancy(
                spec, block_threads=block_threads,
                smem_per_block=int(stats.smem_bytes_per_block),
                regs_per_thread=regs_per_thread)
        occ = occupancy.fraction(spec)

        lane_cycles = (
            w["alu"] * stats.alu_ops
            + w["special"] * stats.special_ops
            + w["smem"] * stats.smem_accesses
            + w["bank_conflict"] * stats.bank_conflicts
            + w["divergent_branch"] * stats.divergent_branches
            + w["sort_step"] * stats.sort_steps
            + w["bank_conflict"] * stats.probe_steps  # probes are smem serial
            + w["atomic"] * stats.atomics
        )
        clock_hz = spec.clock_ghz * 1e9
        issue_rate = spec.n_sms * spec.issue_lanes_per_sm * clock_hz
        hide_compute = min(1.0, max(occ, 1e-6) / 0.5)
        compute_seconds = lane_cycles / (issue_rate * hide_compute)

        memory_cycles = w["gmem_transaction"] * stats.gmem_transactions
        hide_memory = min(1.0, max(occ, 1e-6) / 0.25)
        memory_seconds = memory_cycles / (spec.n_sms * clock_hz
                                          * hide_memory)

        fixed_cycles = (w["launch_overhead"] * stats.kernel_launches
                        + w["block_overhead"] * stats.blocks_launched
                        / max(1, spec.n_sms))
        fixed_seconds = fixed_cycles / clock_hz

        total = max(compute_seconds, memory_seconds) + fixed_seconds
        return SimulatedTime(seconds=total,
                             compute_seconds=compute_seconds,
                             memory_seconds=memory_seconds,
                             fixed_seconds=fixed_seconds,
                             occupancy_fraction=occ)

    def seconds(self, stats: KernelStats, **kwargs) -> float:
        """Shorthand returning only the simulated seconds."""
        return self.simulate(stats, **kwargs).seconds


def price_launch(spec: DeviceSpec, stats: KernelStats, *,
                 grid_blocks: int, block_threads: int,
                 smem_per_block: int = 0, regs_per_thread: int = 32,
                 ) -> Tuple[Occupancy, SimulatedTime]:
    """Stamp a launch shape onto ``stats`` and price it — no side effects.

    This is the pricing core shared by the real launch path
    (:meth:`repro.gpusim.executor.Launch.execute`, which adds fault
    interception on top) and
    :meth:`LaunchSchedule.price <repro.gpusim.executor.LaunchSchedule.price>`.
    Sharing one implementation is what makes estimates *exact*: the same
    counted stats go through the same arithmetic, so estimated and
    executed seconds can only differ when tiling splits the operands.
    """
    occupancy = compute_occupancy(spec, block_threads=block_threads,
                                  smem_per_block=smem_per_block,
                                  regs_per_thread=regs_per_thread)
    stats.kernel_launches += 1
    stats.blocks_launched += grid_blocks
    stats.warps_launched += grid_blocks * occupancy.warps_per_block
    stats.smem_bytes_per_block = max(stats.smem_bytes_per_block,
                                     float(smem_per_block))
    time = CostModel(spec).simulate(stats, occupancy=occupancy)
    return occupancy, time


@dataclass(frozen=True)
class OperandProbe:
    """Structural summary of one operand, as the autotuner sees it.

    Captures exactly the degree-distribution facts that decide the
    row-split vs nonzero-split trade (Yang, Buluç & Owens): totals, the
    degree spread, and how much of the nnz mass sits in rows a
    full-occupancy hash table cannot stage in one block (the §3.3.3
    partitioning overhead that inflates the hybrid engine's makespan on
    skewed inputs, and leaves merge-path untouched).
    """

    n_rows: int
    n_cols: int
    nnz: int
    mean_degree: float
    max_degree: int
    #: coefficient of variation of row degrees (0 for uniform rows)
    degree_cv: float
    #: fraction of nnz in rows wider than the hash staging budget
    partitioned_nnz_fraction: float = 0.0

    @classmethod
    def from_csr(cls, csr, *, partition_budget: int = 0) -> "OperandProbe":
        """Probe any CSR-like operand (needs ``row_degrees()``/``nnz``)."""
        degrees = np.asarray(csr.row_degrees(), dtype=np.int64)
        nnz = int(degrees.sum())
        mean = float(degrees.mean()) if degrees.size else 0.0
        std = float(degrees.std()) if degrees.size else 0.0
        part_frac = 0.0
        if partition_budget > 0 and nnz > 0:
            part_frac = float(
                degrees[degrees > partition_budget].sum()) / nnz
        return cls(n_rows=int(csr.n_rows), n_cols=int(csr.n_cols),
                   nnz=nnz, mean_degree=mean,
                   max_degree=int(degrees.max()) if degrees.size else 0,
                   degree_cv=(std / mean) if mean > 0 else 0.0,
                   partitioned_nnz_fraction=part_frac)

    def as_dict(self) -> dict:
        """JSON-ready summary."""
        return {"n_rows": self.n_rows, "n_cols": self.n_cols,
                "nnz": self.nnz, "mean_degree": self.mean_degree,
                "max_degree": self.max_degree, "degree_cv": self.degree_cv,
                "partitioned_nnz_fraction": self.partitioned_nnz_fraction}
