"""Distributed multi-device pairwise plans (DESIGN.md §15).

Single-device plans price compute; at real scale the dominating cost is
moving operand panels and partial top-k results *between* devices
(McFarland, Bellavita & Guidi: partition shape and communication schedule,
not kernel choice, decide distributed SpGEMM performance). This package
makes that cost first-class:

- :mod:`repro.dist.partition` cuts the pairwise output over a device grid
  (1-D row, 1-D column, 1.5-D, 2-D) and derives the exact communication
  schedule — explicit :class:`CommStep` records whose per-phase byte sums
  match closed-form analytic volumes to the integer;
- :mod:`repro.dist.plan` builds one :class:`PairwisePlan` per device and
  prices the whole job (compute lanes + transfers on a rendezvous clock);
  ``partition="auto"`` picks the shape by exact modeled total cost;
- :mod:`repro.dist.executor` runs the device lanes through the plan
  layer's ordered :func:`~repro.plan.executor.fan_out` (serial or on N
  threads) with deterministic delivery: merged results are
  bit-identical to the single-device estimator, the executed simulated
  seconds equal the plan's estimate exactly, and mid-transfer link faults
  (a :class:`~repro.faults.FaultInjector` schedule) route through
  :class:`~repro.faults.RecoveryPolicy` with watermark resume.

Partitions cut only the *output* dimensions (query rows × corpus rows):
every output cell remains one whole row-pair reduction on one device, so
merging partial top-k across devices is order-independent and the
bit-identity guarantee costs nothing. Feature-column (k-dimension) splits
would change float-summation grouping and are deliberately not offered.
"""

from repro.dist.executor import DistExecutionReport, DistributedExecutor
from repro.dist.partition import (
    PARTITIONS,
    TOPK_PAIR_BYTES,
    CommStep,
    GridPartition,
    Panel,
    analytic_comm_volume,
    build_partition,
    bytes_by_link,
    comm_schedule,
    grid_shape,
    operand_panel_nbytes,
    valid_partitions,
)
from repro.dist.plan import (
    DistributedPlan,
    PartitionCandidate,
    PartitionChoice,
    build_distributed_plan,
)

__all__ = [
    "PARTITIONS",
    "TOPK_PAIR_BYTES",
    "Panel",
    "GridPartition",
    "CommStep",
    "grid_shape",
    "valid_partitions",
    "build_partition",
    "comm_schedule",
    "analytic_comm_volume",
    "operand_panel_nbytes",
    "bytes_by_link",
    "DistributedPlan",
    "PartitionCandidate",
    "PartitionChoice",
    "build_distributed_plan",
    "DistributedExecutor",
    "DistExecutionReport",
]
