"""Execute a :class:`~repro.dist.DistributedPlan` on the simulated clock.

Each device lane interleaves compute (the device's single-device plan run
through :class:`~repro.plan.PlanExecutor`) with the partition's
:class:`~repro.dist.partition.CommStep` transfers, priced by the
interconnect on a deterministic rendezvous clock. The execution is a
watermarked step sequence — allgather transfers, one compute step per
device, reduce/gather transfers — and every observable output is a pure
function of the plan:

- merged distances/indices are **bit-identical** to the single-device
  estimator (panels cut only output rows; every cell is one whole
  row-pair reduction; partial top-k merges tie-break on global ids);
- clean-run ``simulated_seconds`` equals the plan's
  ``estimated_seconds`` exactly — same schedule fold, same priced floats;
- ``n_workers > 1`` runs device compute lanes through the ordered
  :func:`~repro.plan.executor.fan_out` without changing any of the above
  (accounting, and the device plans' metrics, replay in flat device
  order).

Mid-transfer link faults (a :class:`~repro.faults.FaultInjector`
schedule, replayed through :meth:`~repro.faults.FaultInjector.transfer_scope`)
route through the standard
:class:`~repro.faults.RecoveryPolicy`: transient link errors retry with
simulated backoff added to both endpoint clocks; what the retry budget
cannot absorb aborts with a structured
:class:`~repro.errors.ExecutionFaultError` whose ``watermark`` counts
completed steps — calling :meth:`DistributedExecutor.execute` again with
``resume_from=err.watermark`` (same executor, which holds the partial
state) finishes the job, still bit-identical.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dist.plan import DistributedPlan
from repro.errors import ExecutionFaultError
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RETRY, RecoveryPolicy
from repro.faults.spec import FaultEvent, FaultKind
from repro.gpusim.interconnect import simulate_transfer
from repro.neighbors.topk import TopKAccumulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.record import observer
from repro.obs.telemetry import Telemetry, deterministic_trace_id
from repro.obs.tracer import (
    NULL_SPAN,
    Tracer,
    current_trace_context,
    get_default_tracer,
    shielded_trace_context,
)
from repro.plan.consumers import TopKConsumer
from repro.plan.executor import PlanExecutionReport, PlanExecutor, fan_out

__all__ = ["DistributedExecutor", "DistExecutionReport"]


@dataclass
class DistExecutionReport:
    """Everything one distributed execution produced."""

    #: merged ``(distances, indices)`` over the full query set
    value: object
    #: rendezvous-clock makespan (== plan estimate on a clean run)
    simulated_seconds: float
    #: the plan's modeled total, for direct comparison
    estimated_seconds: float
    #: sum of priced transfer seconds (serial, excludes backoff)
    comm_seconds: float
    comm_bytes_total: int
    bytes_by_tier: Dict[str, int] = field(default_factory=dict)
    bytes_by_link: Dict[Tuple[int, int], int] = field(default_factory=dict)
    n_comm_steps: int = 0
    n_devices: int = 0
    partition: str = ""
    grid_rows: int = 0
    grid_cols: int = 0
    n_workers: int = 1
    #: executed per-device compute seconds, flat device order
    compute_seconds: Tuple[float, ...] = ()
    device_reports: Tuple[PlanExecutionReport, ...] = ()
    # ---- fault accounting (all zero / empty on a clean run) ------------
    n_retries: int = 0
    backoff_seconds: float = 0.0
    fault_log: Tuple[FaultEvent, ...] = ()
    resumed_from: int = 0


class DistributedExecutor:
    """Runs a distributed plan's step sequence deterministically.

    Parameters mirror :class:`~repro.plan.PlanExecutor`: ``n_workers``
    threads the per-device compute lanes (observable outputs identical for
    any worker count), ``recovery`` absorbs injected link faults,
    ``link_faults`` (a :class:`~repro.faults.FaultInjector` holding only
    ``transient`` specs, whose tiles are comm-step indices) replays a
    seeded transfer-fault schedule, and
    ``tracer``/``metrics`` receive comm spans/events and
    ``comm_bytes_total{tier=}`` / ``comm_seconds_total`` counters. Device
    compute records into this executor's metrics, in flat device order,
    but *not* its tracer — the distributed trace stays one deterministic
    tree of comm and device spans regardless of worker count.
    ``telemetry`` receives one ``"transfer"`` wide event per comm step
    plus ``"fault"`` events for link retries/aborts, stamped with the
    ambient trace context (or a trace id minted deterministically from the
    plan's shape) — the comm loop runs serially on the execute thread, so
    the event stream is identical for any worker count.
    """

    def __init__(self, plan: DistributedPlan, *, n_workers: int = 1,
                 recovery: Optional[RecoveryPolicy] = None,
                 link_faults: Optional[FaultInjector] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 telemetry: Optional[Telemetry] = None):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.plan = plan
        self.n_workers = int(n_workers)
        self.recovery = recovery
        self.link_faults = link_faults
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.metrics = metrics
        self.telemetry = telemetry
        self._obs = observer(self.tracer, metrics, telemetry)
        self._device_obs = observer(metrics=metrics)
        part = plan.partition
        self._trace_id = (current_trace_context()
                          or deterministic_trace_id(
                              "dist.execute", part.name, part.grid_rows,
                              part.grid_cols, plan.k,
                              plan.interconnect.name))

        pre = [s for s in plan.comm_steps
               if s.phase.startswith("allgather")]
        post = [s for s in plan.comm_steps
                if not s.phase.startswith("allgather")]
        coords = [(r, c) for r in range(part.grid_rows)
                  for c in range(part.grid_cols)]
        #: the watermarked step sequence: ("comm", step) | ("compute", rc)
        self._steps = ([("comm", s) for s in pre]
                       + [("compute", rc) for rc in coords]
                       + [("comm", s) for s in post])
        # ---- execution state, retained across watermark resumes --------
        self._done = 0
        self._clocks = [0.0] * part.n_devices
        self._partials: Dict[Tuple[int, int],
                             Tuple[np.ndarray, np.ndarray]] = {}
        self._device_reports: Dict[Tuple[int, int],
                                   PlanExecutionReport] = {}
        self._comm_seconds = 0.0
        self._comm_bytes = 0
        self._bytes_by_tier: Dict[str, int] = {}
        self._bytes_by_link: Dict[Tuple[int, int], int] = {}
        self._fault_log: List[FaultEvent] = []
        self._n_retries = 0
        self._backoff = 0.0
        self._resumed_from = 0

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    # ------------------------------------------------------------------
    def execute(self, *, resume_from: int = 0) -> DistExecutionReport:
        """Run the step sequence (from ``resume_from`` on) to completion.

        ``resume_from`` must equal this executor's completed-step
        watermark (0 for a fresh executor, ``err.watermark`` after an
        abort) — the partial state that makes resumption exact lives on
        the executor instance.
        """
        if resume_from != self._done:
            raise ValueError(
                f"resume_from must equal this executor's watermark "
                f"({self._done}), got {resume_from}; resumption needs the "
                f"same executor instance that aborted")
        self._resumed_from = resume_from
        plan = self.plan
        part = plan.partition
        root = self.tracer.span(
            "dist.execute", "dist",
            partition=part.name, grid_rows=part.grid_rows,
            grid_cols=part.grid_cols, k=plan.k,
            interconnect=plan.interconnect.name,
            n_workers=part.n_devices, lanes=self.n_workers,
            resume_from=resume_from)
        with root:
            index = self._done
            while index < len(self._steps):
                kind, payload = self._steps[index]
                if kind == "comm":
                    self._run_comm(index, payload, root)
                    index += 1
                    self._done = index
                else:
                    index = self._run_compute_block(index, root)
            value = self._assemble()

        flat = [(r, c) for r in range(part.grid_rows)
                for c in range(part.grid_cols)]
        report = DistExecutionReport(
            value=value, simulated_seconds=max(self._clocks),
            estimated_seconds=plan.estimated_seconds,
            comm_seconds=self._comm_seconds,
            comm_bytes_total=self._comm_bytes,
            bytes_by_tier=dict(self._bytes_by_tier),
            bytes_by_link=dict(self._bytes_by_link),
            n_comm_steps=len(plan.comm_steps), n_devices=part.n_devices,
            partition=part.name, grid_rows=part.grid_rows,
            grid_cols=part.grid_cols, n_workers=self.n_workers,
            compute_seconds=tuple(
                self._device_reports[rc].simulated_seconds for rc in flat),
            device_reports=tuple(self._device_reports[rc] for rc in flat),
            n_retries=self._n_retries, backoff_seconds=self._backoff,
            fault_log=tuple(self._fault_log),
            resumed_from=self._resumed_from)
        self._obs.record(report, span=root)
        return report

    # ------------------------------------------------------------------
    def _run_comm(self, step_index: int, step, root) -> None:
        """One transfer under the recovery policy (retry + backoff)."""
        plan = self.plan
        policy = self.recovery
        injector = self.link_faults
        span = self.tracer.span(
            f"comm.{step.phase}", "comm", parent=root,
            step=step_index, src=step.src, dst=step.dst,
            nbytes=int(step.nbytes))
        with span:
            attempt = 0
            retries = 0
            backoff_here = 0.0
            while True:
                scope = (injector.transfer_scope(step_index, attempt)
                         if injector is not None else nullcontext())
                try:
                    with scope:
                        transfer = simulate_transfer(
                            plan.interconnect, step.nbytes, step.src,
                            step.dst)
                except Exception as exc:  # noqa: BLE001 - classified below
                    action = (policy.classify(exc)
                              if policy is not None else None)
                    retry = action == RETRY and retries < policy.max_retries
                    wait_s = 0.0
                    if retry:
                        retries += 1
                        wait_s = policy.backoff_seconds(retries)
                        backoff_here += wait_s
                    event = FaultEvent(
                        tile_index=step_index, attempt=attempt, depth=0,
                        kind=FaultKind.TRANSIENT,
                        action="retried" if retry else "unabsorbed",
                        detail=(f"link retry {retries}/{policy.max_retries}"
                                if retry else str(exc)),
                        seconds=wait_s)
                    self._fault_log.append(event)
                    self._obs.record(event, site="link", span=span,
                                     phase=step.phase,
                                     trace_id=self._trace_id,
                                     ts_ms=max(self._clocks) * 1e3)
                    if retry:
                        attempt += 1
                        continue
                    raise ExecutionFaultError(
                        f"comm step {step_index} "
                        f"({step.phase} {step.src}->{step.dst}) failed "
                        f"beyond recovery: {exc} (completed watermark "
                        f"{self._done}; resume with "
                        f"resume_from={self._done})",
                        watermark=self._done,
                        fault_log=tuple(self._fault_log),
                        cause=exc) from exc
                break

            self._n_retries += retries
            self._backoff += backoff_here
            t0 = max(self._clocks[step.src], self._clocks[step.dst])
            end = t0 + backoff_here + transfer.seconds
            self._clocks[step.src] = end
            self._clocks[step.dst] = end
            self._comm_seconds += transfer.seconds
            self._comm_bytes += transfer.nbytes
            self._bytes_by_tier[transfer.tier] = (
                self._bytes_by_tier.get(transfer.tier, 0) + transfer.nbytes)
            link = (step.src, step.dst)
            self._bytes_by_link[link] = (
                self._bytes_by_link.get(link, 0) + transfer.nbytes)
            self._obs.record(transfer, span=span, step=step_index,
                             phase=step.phase, retries=retries,
                             backoff_seconds=backoff_here,
                             trace_id=self._trace_id, ts_ms=end * 1e3)

    # ------------------------------------------------------------------
    def _run_device(self, rc: Tuple[int, int]):
        """One device's compute lane (worker-thread safe)."""
        plan = self.plan
        r, c = rc
        device_plan = plan.device_plan(r, c)
        # Shielded: the device plan's root never nests under dist.execute,
        # as on a pool thread, so the trace tree never depends on whether
        # this lane ran on the main thread.
        with shielded_trace_context():
            report = PlanExecutor(device_plan, n_workers=1).execute(
                TopKConsumer(plan.device_k(c)))
        distances, local_idx = report.value
        global_ids = plan.partition.b_panels[c].row_ids[local_idx]
        return report, distances, global_ids

    def _run_compute_block(self, index: int, root) -> int:
        """Run the contiguous run of pending compute steps from ``index``.

        Serial or on ``n_workers`` threads via :func:`fan_out`; results
        are recorded (and the watermark advanced) in flat device order
        either way, so clocks, spans, metrics and reports never depend on
        scheduling.
        """
        plan = self.plan
        part = plan.partition
        block: List[Tuple[int, Tuple[int, int]]] = []
        while index < len(self._steps) and self._steps[index][0] == "compute":
            block.append((index, self._steps[index][1]))
            index += 1

        results = list(fan_out(self._run_device, [rc for _, rc in block],
                               self.n_workers))

        for (step_index, rc), (report, distances, global_ids) in zip(
                block, results):
            r, c = rc
            device = part.device(r, c)
            self._partials[rc] = (distances, global_ids)
            self._device_reports[rc] = report
            self._device_obs.record(report, span=NULL_SPAN)
            self._clocks[device] += report.simulated_seconds
            with self.tracer.span(
                    f"device[{r},{c}]", "tile", parent=root,
                    tile=device, lane=device,
                    rows_a=part.a_panels[r].n_rows,
                    rows_b=part.b_panels[c].n_rows) as span:
                span.set_sim_seconds(report.simulated_seconds)
                span.annotate(n_tiles=report.n_tiles, k=plan.device_k(c))
            self._done = step_index + 1
        return index

    # ------------------------------------------------------------------
    def _assemble(self):
        """Merge per-device partial top-k into the global result.

        Grid-row merges feed :meth:`TopKAccumulator.update_pairs` in fixed
        panel order with *global* corpus ids, so ties break exactly as a
        single unsharded selection would — the bit-identity path the serve
        layer's cross-shard merge already relies on.
        """
        plan = self.plan
        part = plan.partition
        k_final = plan.k_final
        m = plan.a_op.n_rows
        out_d = np.empty((m, k_final), dtype=np.float64)
        out_i = np.empty((m, k_final), dtype=np.int64)
        for r in range(part.grid_rows):
            ids = part.a_panels[r].row_ids
            acc = TopKAccumulator(ids.size, k_final)
            for c in range(part.grid_cols):
                distances, global_ids = self._partials[(r, c)]
                acc.update_pairs(distances, global_ids)
            d_r, i_r = acc.finalize()
            out_d[ids] = d_r
            out_i[ids] = i_r
        return out_d, out_i
