"""The pairwise execution plan: prepared operands + cached norms + tiles.

``build_pairwise_plan`` does every input-dependent step of the pipeline
exactly once — ingestion, the measure's value pre-transform, the row norms
its expansion needs, and the memory-budgeted tile grid — and captures the
result as an immutable :class:`PairwisePlan`. The
:class:`~repro.plan.executor.PlanExecutor` then runs the plan's tiles
without ever touching the raw inputs again, which is what lets the k-NN
path drop its per-batch query re-preparation and norm recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.distances import EXPANDED, DistanceMeasure, make_distance
from repro.core.norms import compute_norms
from repro.gpusim.specs import DeviceSpec, VOLTA_V100, get_device
from repro.kernels import make_engine, resolve_engine_and_spec
from repro.kernels.base import PairwiseKernel
from repro.kernels.host import HostKernel
from repro.obs.tracer import NULL_SPAN, get_default_tracer
from repro.plan.autotune import Autotuner, TuningChoice
from repro.plan.tiling import (
    OUTPUT_ITEM_BYTES,
    TileGrid,
    WORKSPACE_ITEM_BYTES,
    default_memory_budget,
    plan_tile_grid,
)
from repro.sparse.convert import as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import vstack

__all__ = ["PairwisePlan", "PreparedOperand", "build_pairwise_plan",
           "prepare_matrix", "prepare_operand", "stack_operands"]


def prepare_matrix(x, measure: DistanceMeasure) -> CSRMatrix:
    """Ingest any matrix-like input and apply the measure's pre-transform."""
    csr = as_csr(x)
    if measure.binarize:
        csr = csr.map_values(lambda v: (v != 0.0).astype(np.float64))
    if measure.transform is not None:
        csr = csr.map_values(measure.transform)
    return csr


@dataclass(frozen=True)
class PreparedOperand:
    """One operand fully prepared for a measure: transform applied, norms
    cached.

    Passing a ``PreparedOperand`` (instead of a raw matrix) to
    :func:`build_pairwise_plan` skips ingestion, the value pre-transform,
    and the expansion's norm reductions entirely — the single code path the
    fitted :class:`~repro.neighbors.NearestNeighbors` estimator and the
    serving layer's :class:`~repro.serve.ShardedIndex` share, so a resident
    index never re-prepares or re-norms its rows per query (or per shard).
    """

    csr: CSRMatrix
    measure_name: str
    norms: Optional[Dict[str, np.ndarray]] = None

    @property
    def n_rows(self) -> int:
        return self.csr.n_rows

    @property
    def n_cols(self) -> int:
        return self.csr.n_cols

    def take_rows(self, rows: np.ndarray) -> "PreparedOperand":
        """The prepared operand restricted to ``rows`` (sharding primitive):
        values and norms are sliced, never recomputed."""
        rows = np.asarray(rows, dtype=np.int64)
        norms = (None if self.norms is None
                 else {k: v[rows] for k, v in self.norms.items()})
        return PreparedOperand(self.csr.take_rows(rows), self.measure_name,
                               norms)


def prepare_operand(x, measure: DistanceMeasure) -> PreparedOperand:
    """Prepare one operand for ``measure`` exactly once (matrix + norms)."""
    if isinstance(x, PreparedOperand):
        _check_operand_measure(x, measure)
        return x
    csr = prepare_matrix(x, measure)
    norms = (compute_norms(csr, measure.norms)
             if measure.kind == EXPANDED else None)
    return PreparedOperand(csr, measure.name, norms)


def stack_operands(blocks: Sequence[PreparedOperand]) -> PreparedOperand:
    """Stack prepared operands vertically, values and norms, in order
    (a single block is returned as is)."""
    if len(blocks) == 1:
        return blocks[0]
    norms = None
    if blocks[0].norms:
        norms = {kind: np.concatenate([b.norms[kind] for b in blocks])
                 for kind in sorted(blocks[0].norms)}
    return PreparedOperand(vstack([b.csr for b in blocks]),
                           blocks[0].measure_name, norms)


def _check_operand_measure(operand: PreparedOperand,
                           measure: DistanceMeasure) -> None:
    if operand.measure_name != measure.name:
        raise ValueError(
            f"operand was prepared for measure {operand.measure_name!r} but "
            f"the plan computes {measure.name!r}; prepare_operand() again "
            f"for the new measure")


@dataclass
class PairwisePlan:
    """Everything the executor needs to run one pairwise job.

    The prepared operands carry the measure's pre-transform exactly once
    (Hellinger's √x, the set measures' binarization); ``norms_a/norms_b``
    are the expansion's row norms computed once over the *full* operands and
    sliced per tile at execution time.
    """

    a: CSRMatrix
    b: CSRMatrix
    b_is_a: bool
    measure: DistanceMeasure
    kernel: PairwiseKernel
    spec: DeviceSpec
    grid: TileGrid
    memory_budget_bytes: int
    norms_a: Optional[Dict[str, np.ndarray]] = None
    norms_b: Optional[Dict[str, np.ndarray]] = None
    #: the autotuner's decision record when the plan was built with
    #: ``engine="auto"`` (None for fixed-engine plans)
    tuning: Optional[TuningChoice] = None

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return (self.a.n_rows, self.b.n_rows)

    @property
    def simulate(self) -> bool:
        """Whether device accounting applies (host engines price nothing)."""
        return not isinstance(self.kernel, HostKernel)

    @property
    def n_tiles(self) -> int:
        return self.grid.n_tiles

    @property
    def monolithic_bytes(self) -> float:
        """Device bytes an untiled (full-block) execution would hold
        resident: the whole dense output plus the full-stream workspace."""
        return (float(self.a.n_rows) * self.b.n_rows * OUTPUT_ITEM_BYTES
                + float(self.b.nnz) * WORKSPACE_ITEM_BYTES)

    # ------------------------------------------------------------------
    def a_band(self, band: int) -> CSRMatrix:
        return _row_band(self.a, self.grid.row_starts_a, band)

    def b_band(self, band: int) -> CSRMatrix:
        return _row_band(self.b, self.grid.row_starts_b, band)

    def norms_slice_a(self, a0: int, a1: int) -> Dict[str, np.ndarray]:
        return {k: v[a0:a1] for k, v in (self.norms_a or {}).items()}

    def norms_slice_b(self, b0: int, b1: int) -> Dict[str, np.ndarray]:
        return {k: v[b0:b1] for k, v in (self.norms_b or {}).items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PairwisePlan({self.measure.name}, shape={self.shape}, "
                f"engine={getattr(self.kernel, 'name', 'custom')}, "
                f"tiles={self.grid.n_bands_a}x{self.grid.n_bands_b})")


def _row_band(m: CSRMatrix, row_starts: np.ndarray, band: int) -> CSRMatrix:
    """Rows ``row_starts[band]:row_starts[band + 1]`` of ``m``.

    All of ``m`` is ``m`` itself. Any other band is sliced once per matrix
    and row range and kept on ``m``: every plan that cuts a resident operand
    the same way, such as each ``kneighbors()`` of a fitted estimator,
    streams the same band object, whose transpose and stream costs are then
    built once, not once per call. A matrix keeps one band per distinct row
    range it was cut at, so what it holds grows with its tile grids, not
    with the calls. Two threads may slice one band at once; both get equal
    bands, so that race is harmless.
    """
    lo, hi = int(row_starts[band]), int(row_starts[band + 1])
    if lo == 0 and hi == m.n_rows:
        return m
    bands = m._row_bands
    if bands is None:
        bands = m._row_bands = {}
    if (lo, hi) not in bands:
        bands[(lo, hi)] = m.slice_rows(lo, hi)
    return bands[(lo, hi)]


def _workspace_per_row_b(b: CSRMatrix) -> float:
    """Mean workspace bytes one streamed B row contributes (nnz-based)."""
    if b.n_rows == 0:
        return 0.0
    return (b.nnz / b.n_rows) * WORKSPACE_ITEM_BYTES


def build_pairwise_plan(
    x,
    y=None,
    metric: Union[str, DistanceMeasure] = "cosine",
    *,
    engine: Union[str, PairwiseKernel] = "hybrid_coo",
    device: Union[str, DeviceSpec, None] = None,
    memory_budget_bytes: Optional[int] = None,
    max_tile_rows_a: Optional[int] = None,
    max_tile_rows_b: Optional[int] = None,
    tracer=None,
    **metric_params,
) -> PairwisePlan:
    """Plan a pairwise-distance job without executing it.

    Parameters mirror :func:`repro.core.pairwise.pairwise_distances`; the
    extra knobs bound each tile: ``memory_budget_bytes`` (default: a quarter
    of the device's global memory) and the optional per-side row caps.
    ``tracer`` records the planning work as a ``plan.build`` span (defaults
    to the process-wide tracer, normally the zero-overhead null one).

    ``engine="auto"`` hands the choice to the
    :class:`~repro.plan.autotune.Autotuner`: engine × row-cache × tile
    shape is picked by exact cost-model dry runs over the operands' degree
    distributions, and the decision record lands on ``plan.tuning``.

    Either side may be a :class:`PreparedOperand` (see
    :func:`prepare_operand`), in which case its pre-transformed values and
    cached norms are reused verbatim — the resident-index fast path.
    """
    if tracer is None:
        tracer = get_default_tracer()
    span = tracer.span("plan.build", "plan") if tracer.enabled else NULL_SPAN
    with span:
        measure = (metric if isinstance(metric, DistanceMeasure)
                   else make_distance(metric, **metric_params))

        op_a = prepare_operand(x, measure)
        b_is_a = y is None
        op_b = op_a if b_is_a else prepare_operand(y, measure)
        a, b = op_a.csr, op_b.csr

        tuning = None
        if isinstance(engine, str) and engine.lower() == "auto":
            spec = (get_device(device) if isinstance(device, str)
                    else (device or VOLTA_V100))
            tuning = Autotuner(spec).tune(a, b, measure.semiring)
            kernel = make_engine(tuning.engine, spec,
                                 **tuning.engine_kwargs())
            if max_tile_rows_b is None:
                max_tile_rows_b = tuning.max_tile_rows_b
        else:
            kernel, spec = resolve_engine_and_spec(engine, device)

        norms_a = norms_b = None
        if measure.kind == EXPANDED:
            norms_a = (op_a.norms if op_a.norms is not None
                       else compute_norms(a, measure.norms))
            norms_b = (norms_a if b_is_a
                       else (op_b.norms if op_b.norms is not None
                             else compute_norms(b, measure.norms)))

        budget = (default_memory_budget(spec) if memory_budget_bytes is None
                  else int(memory_budget_bytes))
        grid = plan_tile_grid(a.n_rows, b.n_rows, budget_bytes=budget,
                              workspace_per_row_b=_workspace_per_row_b(b),
                              max_tile_rows_a=max_tile_rows_a,
                              max_tile_rows_b=max_tile_rows_b)
        span.annotate(metric=measure.name,
                      engine=getattr(kernel, "name", "custom"),
                      n_tiles=grid.n_tiles,
                      shape=f"{a.n_rows}x{b.n_rows}x{a.n_cols}",
                      memory_budget_bytes=budget,
                      tuned=tuning is not None)

    return PairwisePlan(a=a, b=b, b_is_a=b_is_a, measure=measure,
                        kernel=kernel, spec=spec, grid=grid,
                        memory_budget_bytes=budget,
                        norms_a=norms_a, norms_b=norms_b,
                        tuning=tuning)
