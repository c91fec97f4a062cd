"""Execution-plan layer: plan/execute split for the pairwise pipeline.

The planner/executor split used by SpGEMM systems that schedule semiring
work over partitioned operands, applied to the paper's pairwise-distance
pipeline:

- :func:`build_pairwise_plan` performs every input-dependent step exactly
  once — ingestion, the measure's value pre-transform, cached row norms —
  and cuts the output block into a memory-budgeted :class:`TileGrid`;
- :class:`PlanExecutor` runs the tiles serially or on N concurrent workers
  (simulated streams), merging stats and simulated time deterministically;
- :class:`TileConsumer` implementations decide what happens to each
  finished tile: materialize (:class:`DenseBlockConsumer`), fold a
  streaming top-k (:class:`TopKConsumer`), or hand it to user code
  (:class:`CallbackConsumer`).

``repro.core.pairwise.pairwise_distances`` and
``repro.neighbors.brute_force.NearestNeighbors`` are thin wrappers over
this layer.
"""

from repro.plan.autotune import Autotuner, CandidateEstimate, TuningChoice
from repro.plan.consumers import (
    CallbackConsumer,
    DenseBlockConsumer,
    TileConsumer,
    TopKConsumer,
)
from repro.plan.executor import (
    PlanExecutionReport,
    PlanExecutor,
    estimate_execution_seconds,
)
from repro.plan.pairwise_plan import (
    PairwisePlan,
    PreparedOperand,
    build_pairwise_plan,
    prepare_matrix,
    prepare_operand,
)
from repro.plan.tiling import (
    OUTPUT_ITEM_BYTES,
    Tile,
    TileGrid,
    WORKSPACE_ITEM_BYTES,
    default_memory_budget,
    plan_tile_grid,
)

__all__ = [
    "PairwisePlan",
    "PreparedOperand",
    "Autotuner",
    "CandidateEstimate",
    "TuningChoice",
    "build_pairwise_plan",
    "prepare_matrix",
    "prepare_operand",
    "PlanExecutor",
    "PlanExecutionReport",
    "estimate_execution_seconds",
    "TileConsumer",
    "DenseBlockConsumer",
    "TopKConsumer",
    "CallbackConsumer",
    "Tile",
    "TileGrid",
    "plan_tile_grid",
    "default_memory_budget",
    "OUTPUT_ITEM_BYTES",
    "WORKSPACE_ITEM_BYTES",
]
