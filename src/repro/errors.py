"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SparseFormatError(ReproError):
    """A sparse container's arrays are malformed or inconsistent."""


class ShapeMismatchError(ReproError):
    """Two operands have incompatible shapes."""


class SemiringError(ReproError):
    """A semiring definition violates the required algebraic structure."""


class UnknownDistanceError(ReproError, KeyError):
    """A distance name was not found in the registry."""


class DeviceConfigError(ReproError):
    """A simulated device configuration is invalid or unsatisfiable."""


class InterconnectConfigError(DeviceConfigError):
    """An interconnect topology or transfer endpoint is invalid.

    Raised for unknown preset names (the message lists every registered
    topology), non-positive link bandwidths, negative latencies, and
    transfers addressed to devices outside ``range(n_devices)``.
    """


class PartitionConfigError(ReproError):
    """A distributed partition request cannot be satisfied.

    Raised for unknown partition names (the message lists the valid
    shapes), device counts a shape cannot tile (e.g. ``1p5d`` over an odd
    device count), and grids with more panels than operand rows.
    """


class EngineConfigError(ReproError):
    """An execution-engine request cannot be satisfied.

    Raised for unknown engine names (the message lists every registered
    engine) and for configuration a given engine cannot express — e.g.
    passing ``row_cache=`` to an engine whose
    :attr:`~repro.kernels.base.PairwiseKernel.row_cache_strategies` is
    empty. ``engine`` names the offending engine (empty for unknown names)
    and ``available`` carries the registry listing.
    """

    def __init__(self, message: str, *, engine: str = "",
                 available: tuple = ()):
        super().__init__(message)
        self.engine = str(engine)
        self.available = tuple(available)


class KernelLaunchError(ReproError):
    """A simulated kernel could not be scheduled with the requested resources."""


class PlanBudgetError(ReproError):
    """An execution plan's memory budget cannot fit even a single tile."""


class DeviceOOMError(ReproError):
    """A simulated device allocation (tile output + workspace) failed."""


class HashCapacityError(KernelLaunchError):
    """A staged row's nonzeros exceed the block hash table's safe capacity.

    Carries the offending ``degree`` and the table's ``capacity`` so callers
    can route the row through :func:`repro.kernels.strategy.plan_partitions`
    (the paper's §3.3.3 escape hatch) instead of failing the launch.
    """

    def __init__(self, message: str, *, degree: int = 0, capacity: int = 0):
        super().__init__(message)
        self.degree = int(degree)
        self.capacity = int(capacity)


class InjectedFault(Exception):
    """Mixin marking an exception as raised by a :class:`FaultInjector`.

    Injected faults impersonate their real counterparts (they also subclass
    the genuine error type), so recovery code never needs to distinguish
    simulated failures from organic ones; the marker only tells the executor
    that an unabsorbed failure belongs to a fault schedule and should surface
    as a structured :class:`ExecutionFaultError`.
    """


class TransientLaunchFault(InjectedFault, KernelLaunchError):
    """An injected transient launch failure (succeeds when retried)."""


class LinkTransientFault(TransientLaunchFault):
    """An injected mid-transfer link failure (succeeds when retried).

    Subclasses :class:`TransientLaunchFault` so the standard
    :class:`~repro.faults.RecoveryPolicy` classifies it as retryable
    without any link-specific ladder; the distributed executor replays
    the failed :class:`~repro.dist.CommStep` with backoff."""


class TileStuckError(InjectedFault, KernelLaunchError):
    """An injected stuck tile: the simulated watchdog killed the launch."""


class TileWorkspaceOOM(InjectedFault, DeviceOOMError):
    """An injected tile-workspace allocation failure (split the tile)."""


class InjectedHashCapacityFault(InjectedFault, HashCapacityError):
    """An injected hash-table capacity overflow (degrade the strategy)."""


class ServeError(ReproError):
    """Base class for errors raised by the online serving layer."""


class SnapshotFormatError(ServeError):
    """A :class:`~repro.serve.ShardedIndex` snapshot is malformed,
    truncated, or written by an incompatible version."""


class AdmissionRejected(ServeError):
    """The server refused to admit a request at submission time.

    Raised — never asserted — by the admission gate (token bucket, queue
    depth, forming-batch age) and by the SLO-driven
    :class:`~repro.serve.BackpressureController` shed ladder. ``reason``
    is a stable machine-readable label (``"queue_depth"``, ``"batch_age"``,
    ``"rate"``, or ``"shed:<rung>"``), ``priority`` the rejected request's
    class, and ``arrival_ms`` its position on the simulated clock. Every
    rejection is also counted in ``serve_rejected_total`` /
    ``serve_shed_total`` and logged in ``Server.shed_reports``, so
    ``serve_requests_total == resolved + shed + rejected`` reconciles to
    the integer.
    """

    def __init__(self, message: str, *, reason: str = "",
                 priority: int = 0, arrival_ms: float = 0.0,
                 queue_depth: int = 0):
        super().__init__(message)
        self.reason = str(reason)
        self.priority = int(priority)
        self.arrival_ms = float(arrival_ms)
        self.queue_depth = int(queue_depth)


class InvalidDeadlineError(ServeError):
    """A request's ``deadline_ms`` is already past at admission time.

    A deadline at or before the arrival instant can never be met — the
    server rejects it at :meth:`~repro.serve.Server.submit` instead of
    admitting a request that is late before it is queued. The message and
    the ``arrival_ms`` / ``deadline_ms`` attributes name both timestamps.
    """

    def __init__(self, message: str, *, arrival_ms: float = 0.0,
                 deadline_ms: float = 0.0):
        super().__init__(message)
        self.arrival_ms = float(arrival_ms)
        self.deadline_ms = float(deadline_ms)


class ShardFailedError(ServeError):
    """Every shard of a served query failed beyond recovery.

    Single-shard failures degrade to a ``partial=True`` result instead;
    this error means no shard produced neighbors at all. ``fault_log``
    aggregates the per-shard :class:`~repro.faults.FaultEvent` records.
    """

    def __init__(self, message: str, *, failed_shards: tuple = (),
                 fault_log: tuple = ()):
        super().__init__(message)
        self.failed_shards = tuple(failed_shards)
        self.fault_log = tuple(fault_log)


class CompactionFaultError(ServeError):
    """A mutable-index compaction aborted on a fault its retry budget could
    not absorb.

    Structured for resumption, mirroring :class:`ExecutionFaultError`:
    ``watermark`` is the number of new-generation shards fully built before
    the abort. The pending compaction state is retained — serving continues
    unchanged from the previous generation (base + sealed delta + memtable)
    — and calling ``MutableIndex.compact()`` again resumes building from
    the watermark. ``fault_log`` carries the
    :class:`~repro.faults.FaultEvent` records observed up to and including
    the fatal one.
    """

    def __init__(self, message: str, *, watermark: int = 0,
                 fault_log: tuple = (), cause: "Exception | None" = None):
        super().__init__(message)
        self.watermark = int(watermark)
        self.fault_log = tuple(fault_log)
        self.cause = cause


class ExecutionFaultError(ReproError):
    """A plan execution failed on a fault its recovery could not absorb.

    Structured for resumption: ``watermark`` is the number of tiles the
    consumer received (in tile order) before the abort — re-running the plan
    with ``resume_from=watermark`` on the same consumer completes the job —
    and ``fault_log`` is the tuple of :class:`repro.faults.FaultEvent`
    records observed up to and including the fatal one.
    """

    def __init__(self, message: str, *, watermark: int = 0,
                 fault_log: tuple = (), cause: "Exception | None" = None):
        super().__init__(message)
        self.watermark = int(watermark)
        self.fault_log = tuple(fault_log)
        self.cause = cause
