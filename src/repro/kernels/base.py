"""Common interface for simulated pairwise-semiring kernels.

A kernel computes the semiring inner-product block

    C[i, j] = ⊕_{c ∈ cols(A_i) ∩/∪ cols(B_j)} ⊗(A[i, c], B[j, c])

for all row pairs. Every engine's block is the same
:func:`~repro.kernels.functional.semiring_block`, which the plan executor
evaluates once per tile; engines differ only in *schedule* — the
launches, and the work each one counts, the simulated device would run.
An engine is therefore a pure function :meth:`PairwiseKernel.schedule`
from an operand pair to a :class:`~repro.gpusim.executor.LaunchSchedule`,
and the base class owns the one launch path (:meth:`PairwiseKernel.run`)
and the one estimate (:meth:`PairwiseKernel.estimate_seconds`) built on
it. The distance layer (:mod:`repro.core.pairwise`) wraps the block with
transforms, norms, expansion and finalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.semiring import Semiring
from repro.faults.injector import kernel_checkpoint
from repro.gpusim.executor import LaunchSchedule
from repro.gpusim.specs import DeviceSpec, VOLTA_V100
from repro.gpusim.stats import KernelStats
from repro.sparse.csr import CSRMatrix, check_same_n_cols

__all__ = ["KernelResult", "PairwiseKernel", "product_cost_profile"]


@dataclass
class KernelResult:
    """The simulated execution record of one launched schedule."""

    stats: KernelStats
    seconds: float
    #: the schedule that was launched (None for engines that override run)
    schedule: Optional[LaunchSchedule] = None


class PairwiseKernel:
    """Base class for every execution strategy (Algorithms 1-3 + baselines).

    Subclasses advertise their registry record through class attributes
    (consumed by :mod:`repro.kernels.engine`): ``name`` addresses the
    engine, ``row_cache_strategies`` lists the §3.3 staging strategies it
    accepts as ``row_cache=`` (empty when the schedule stages no rows),
    and ``tunable`` puts the engine in ``engine="auto"``'s candidate set.

    Engines hold configuration only: :meth:`schedule` is pure, so one
    instance serves every tile and worker, and pricing a schedule gives
    exactly the seconds launching it does.
    """

    #: registry / CLI name of the strategy
    name: str = "abstract"
    #: ``row_cache=`` values the engine accepts ("auto" + explicit ones);
    #: empty for engines whose schedule has no staged row cache
    row_cache_strategies: tuple = ()
    #: whether ``engine="auto"`` considers this engine
    tunable: bool = False
    #: the schedule :meth:`run` last launched (diagnostics only; never read
    #: by :meth:`schedule`)
    last_schedule: Optional[LaunchSchedule] = None

    def __init__(self, spec: DeviceSpec = VOLTA_V100):
        self.spec = spec

    def schedule(self, a: CSRMatrix, b: CSRMatrix,
                 semiring: Semiring) -> LaunchSchedule:
        """The launches computing the ``(a.n_rows, b.n_rows)`` block.

        Pure: a function of the configuration and the operands only. The
        default is no launch at all — exact host math that prices nothing.
        """
        return LaunchSchedule()

    def run(self, a: CSRMatrix, b: CSRMatrix, semiring: Semiring,
            log: Optional[list] = None) -> KernelResult:
        """Launch the schedule; the block itself is the executor's
        :func:`~repro.kernels.functional.semiring_block`.

        The fault-injection checkpoint fires first: it is the simulated
        moment the kernel claims its device workspace and shared-memory
        staging (an active :class:`repro.faults.FaultInjector` raises
        workspace-OOM and hash-capacity faults here). Past it, the engine's
        name goes into the launch ``log``, then each launch (see
        :meth:`~repro.gpusim.executor.LaunchSchedule.execute`): the
        executor's observer counts every such run once in
        ``engine_selected_total{engine=...}``, so operators can reconcile
        which engine ran each tile.
        """
        check_same_n_cols(a, b)
        kernel_checkpoint(self)
        log = [] if log is None else log
        log.append(self.name)
        schedule = self.schedule(a, b, semiring)
        stats, seconds = schedule.execute(self.spec, log)
        self.last_schedule = schedule
        return KernelResult(stats=stats, seconds=seconds, schedule=schedule)

    def estimate_seconds(self, a: CSRMatrix, b: CSRMatrix,
                         semiring: Semiring) -> float:
        """Simulated seconds :meth:`run` would report, with no side effects
        (the same schedule, priced instead of launched)."""
        check_same_n_cols(a, b)
        return self.schedule(a, b, semiring).price(self.spec)

    @property
    def last_profiles(self) -> List[object]:
        """Per-launch diagnostics of the last :meth:`run`."""
        return ([] if self.last_schedule is None
                else self.last_schedule.profiles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(spec={self.spec.name})"


#: Per-application ⊗ cost hints (alu ops, special-function ops) for the cost
#: model, keyed by the product-monoid name prefix. Unknown ops fall back to
#: a generic 2-alu estimate.
_PRODUCT_COSTS = {
    "times": (1.0, 0.0),
    "dot": (1.0, 0.0),
    "cosine": (1.0, 0.0),
    "euclidean": (1.0, 0.0),
    "sqeuclidean": (1.0, 0.0),
    "hellinger": (1.0, 0.0),
    "correlation": (1.0, 0.0),
    "dice": (1.0, 0.0),
    "jaccard": (1.0, 0.0),
    "russellrao": (1.0, 0.0),
    "manhattan": (2.0, 0.0),
    "chebyshev": (2.0, 0.0),
    "hamming": (1.0, 0.0),
    "canberra": (5.0, 0.0),
    "minkowski": (3.0, 2.0),
    "kl_divergence": (3.0, 2.0),
    "jensen_shannon": (8.0, 6.0),
    "tropical": (1.0, 0.0),
}


def product_cost_profile(semiring: Semiring):
    """(alu, special) lane-op estimate for one ⊗ application."""
    key = semiring.name.split("(")[0]
    return _PRODUCT_COSTS.get(key, (2.0, 0.0))
