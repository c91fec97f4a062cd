"""Simulated GPU substrate.

No physical GPU is available in this reproduction, so the architectural
behaviour the paper's Section 3 reasons about — SIMT warps, occupancy,
shared-memory capacity and bank conflicts, global-memory coalescing — is
modeled as data plus an analytic cost model. Engines describe the work
they would issue as a launch schedule; the model prices it; the benchmarks report the priced
("simulated") times alongside host wall-clock.

See DESIGN.md §2 for why this substitution preserves the paper's claims.
"""

from repro.gpusim.cost_model import (CostModel, OperandProbe,
                                     SimulatedTime, price_launch)
from repro.gpusim.executor import Launch, LaunchResult, LaunchSchedule
from repro.gpusim.interconnect import (
    INTERCONNECTS,
    InterconnectSpec,
    LinkSpec,
    Transfer,
    get_interconnect,
    simulate_transfer,
)
from repro.gpusim.memory import (
    TRANSACTION_BYTES,
    bank_conflicts_for_offsets,
    coalesced_transactions,
    uncoalesced_transactions,
)
from repro.gpusim.occupancy import Occupancy, compute_occupancy
from repro.gpusim.specs import AMPERE_A100, KIB, VOLTA_V100, DeviceSpec, get_device
from repro.gpusim.stats import KernelStats
from repro.gpusim.tiles import TileAccountant, TileLaunchRecord

__all__ = [
    "DeviceSpec",
    "VOLTA_V100",
    "AMPERE_A100",
    "KIB",
    "get_device",
    "KernelStats",
    "Occupancy",
    "compute_occupancy",
    "CostModel",
    "OperandProbe",
    "price_launch",
    "SimulatedTime",
    "Launch",
    "LaunchResult",
    "LaunchSchedule",
    "LinkSpec",
    "Transfer",
    "InterconnectSpec",
    "INTERCONNECTS",
    "get_interconnect",
    "simulate_transfer",
    "TileAccountant",
    "TileLaunchRecord",
    "TRANSACTION_BYTES",
    "coalesced_transactions",
    "uncoalesced_transactions",
    "bank_conflicts_for_offsets",
]
