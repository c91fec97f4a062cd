"""Simulated GPU device specifications.

We have no physical GPU in this environment, so the paper's architectural
constraints (Section 3.1) are reproduced as data: streaming multiprocessor
counts, warp width, shared-memory capacities, register files, scheduling
limits, and a small set of relative cost weights for the analytic model in
:mod:`repro.gpusim.cost_model`.

The two built-in specs are the paper's evaluation architectures:

- **Volta V100** — 96 KiB shared memory per SM once the L1 carve-out is
  traded (paper §3.3: "we achieve full occupancy on the Volta architecture
  by trading off the size of the L1 cache"), 64 concurrent warps per SM.
- **Ampere A100** — 163 KiB usable shared memory per SM.

The paper's derived capacity numbers fall straight out of these constants
and are pinned by tests: dense f32 row caching caps at ~23K/40K dimensions
(12K/20K at full occupancy), and the 8-byte key/value hash table at 50% load
caps at ~3K/5K nonzeros per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import DeviceConfigError

__all__ = ["DeviceSpec", "VOLTA_V100", "AMPERE_A100", "get_device", "KIB"]

KIB = 1024


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural constants for one simulated device."""

    name: str
    n_sms: int
    warp_size: int = 32
    max_warps_per_sm: int = 64
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 32
    #: instruction issue width per SM (4 warp schedulers x 32 lanes). The
    #: 64 *resident* warps exist to hide latency; throughput is bounded by
    #: issue width, which is why the cost model separates the two.
    issue_lanes_per_sm: int = 128
    #: usable shared memory per SM (bytes) with the L1 trade-off applied
    smem_per_sm_bytes: int = 96 * KIB
    #: largest static shared-memory allocation a single block may request
    smem_per_block_max_bytes: int = 96 * KIB
    registers_per_sm: int = 65536
    smem_banks: int = 32
    clock_ghz: float = 1.38
    global_mem_bytes: int = 16 * 1024**3
    #: relative per-lane cost weights (arbitrary cycle units) consumed by
    #: the cost model; tuned once, shared by every kernel so comparisons
    #: between strategies are apples-to-apples.
    cost_weights: Dict[str, float] = field(default_factory=lambda: {
        "alu": 1.0,               # one arithmetic lane-op
        "special": 16.0,          # log/exp/pow lane-op (software SFU path)
        "smem": 2.0,              # one shared-memory lane access
        "bank_conflict": 2.0,     # each serialized extra smem cycle
        # one 128B transaction per SM-cycle unit; 8 cycles/transaction over
        # 80 SMs at 1.38 GHz models ~1.7 TB/s of effective bandwidth (HBM2
        # plus the L2 reuse that a stream re-read across blocks enjoys).
        # Calibrated so arithmetic-heavy semirings (Jensen-Shannon,
        # Minkowski) go compute-bound, as they are in the paper's Table 3.
        "gmem_transaction": 8.0,
        "atomic": 24.0,           # one global atomic
        "divergent_branch": 8.0,  # each serialized divergent branch
        "sort_step": 8.0,         # one key/value smem compare-exchange
        "launch_overhead": 2000.0,  # fixed cycles per kernel launch
        "block_overhead": 50.0,   # scheduling cycles per block
    })

    def __post_init__(self):
        if self.n_sms <= 0 or self.warp_size <= 0:
            raise DeviceConfigError("n_sms and warp_size must be positive")
        if self.max_threads_per_block % self.warp_size:
            raise DeviceConfigError(
                "max_threads_per_block must be a warp multiple")
        if self.smem_per_block_max_bytes > self.smem_per_sm_bytes:
            raise DeviceConfigError(
                "a block cannot allocate more shared memory than the SM has")

    # ------------------------------------------------------------------
    # derived capacities quoted in the paper
    # ------------------------------------------------------------------
    def max_dense_dim(self, itemsize: int = 4) -> int:
        """Max dimensionality a dense f32 row cache supports per block."""
        return self.smem_per_block_max_bytes // itemsize

    def max_dense_dim_full_occupancy(self, itemsize: int = 4) -> int:
        """Dense-row dimensionality cap while keeping all warps resident.

        Full occupancy with 1024-thread (32-warp) blocks needs 2 resident
        blocks per SM, so each block may use at most half the SM's shared
        memory (the paper's 12K/20K numbers).
        """
        blocks_needed = self.max_warps_per_sm * self.warp_size \
            // self.max_threads_per_block
        blocks_needed = max(1, blocks_needed)
        return (self.smem_per_sm_bytes // blocks_needed) // itemsize

    def hash_table_slots(self, entry_bytes: int = 8) -> int:
        """Key/value slots of a full-occupancy per-block hash table."""
        blocks_needed = max(1, self.max_warps_per_sm * self.warp_size
                            // self.max_threads_per_block)
        return (self.smem_per_sm_bytes // blocks_needed) // entry_bytes

    def hash_table_max_degree(self) -> int:
        """Max row degree the hash-table strategy handles without
        partitioning: half the 8-byte slots, the 50% load factor (paper
        §3.3.2: ~3K on Volta, ~5K on Ampere)."""
        return self.hash_table_slots() // 2

    @property
    def peak_lane_throughput(self) -> float:
        """Issued lane-operations per second at full occupancy."""
        return self.n_sms * self.issue_lanes_per_sm * self.clock_ghz * 1e9

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy of this spec with selected fields replaced."""
        return replace(self, **kwargs)


VOLTA_V100 = DeviceSpec(
    name="volta-v100",
    n_sms=80,
    smem_per_sm_bytes=96 * KIB,
    smem_per_block_max_bytes=96 * KIB,
    clock_ghz=1.38,
    global_mem_bytes=16 * 1024**3,
)

AMPERE_A100 = DeviceSpec(
    name="ampere-a100",
    n_sms=108,
    smem_per_sm_bytes=163 * KIB,
    smem_per_block_max_bytes=163 * KIB,
    clock_ghz=1.41,
    global_mem_bytes=40 * 1024**3,
)

_DEVICES = {d.name: d for d in (VOLTA_V100, AMPERE_A100)}
_DEVICES.update({"volta": VOLTA_V100, "v100": VOLTA_V100,
                 "ampere": AMPERE_A100, "a100": AMPERE_A100})


def get_device(name: str) -> DeviceSpec:
    """Look up a built-in device spec by name or alias."""
    try:
        return _DEVICES[name.lower()]
    except KeyError:
        raise DeviceConfigError(
            f"unknown device {name!r}; available: "
            f"{sorted(set(d.name for d in _DEVICES.values()))}") from None
