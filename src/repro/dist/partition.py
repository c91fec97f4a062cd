"""Device-grid partitions of a pairwise job and their exact comm schedules.

A partition cuts the pairwise *output* (query rows × corpus rows) over an
``R × C`` device grid: device ``(r, c)`` computes the block ``A_r × B_c``
where ``A_r`` is the r-th panel of query rows and ``B_c`` the c-th panel of
corpus rows. The four named shapes are all instances of one grid:

==========  =========================  ====================================
name        grid (R × C)               character
==========  =========================  ====================================
``1d_row``  ``(p, 1)``                 replicate B, split queries
``1d_col``  ``(1, p)``                 replicate A, split corpus
``1p5d``    ``(p/2, 2)``               two corpus panels, p/2 query panels
``2d``      ``(p/C, C)``, C ≈ √p       near-square grid, both sides split
==========  =========================  ====================================

Initial ownership makes the communication *exact*, not asymptotic: device
``(r, c)`` starts holding the c-th sub-slice of ``A_r`` and the r-th
sub-slice of ``B_c``, so assembling its block costs one allgather of A
within its grid row and one allgather of B within its grid column. After
compute, per-row partial top-k reduce within each grid row to the row
leader ``(r, 0)``, and row leaders gather to device 0. Every transfer is
an explicit :class:`CommStep`; per-phase byte sums equal the closed forms
in :func:`analytic_comm_volume` to the integer (a hypothesis-checked
invariant), which is what lets ``bench compare`` gate ``comm_bytes*``
columns at exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.degree import balanced_split
from repro.errors import PartitionConfigError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "PARTITIONS",
    "PLACEMENTS",
    "TOPK_PAIR_BYTES",
    "OPERAND_INDEX_BYTES",
    "Panel",
    "GridPartition",
    "CommStep",
    "grid_shape",
    "valid_partitions",
    "build_partition",
    "operand_panel_nbytes",
    "comm_schedule",
    "analytic_comm_volume",
    "bytes_by_link",
]

#: The named partition shapes, in canonical (tie-break) order.
PARTITIONS = ("1d_row", "1d_col", "1p5d", "2d")

#: Panel placement policies (mirrors ``serve.sharding.PLACEMENTS``).
PLACEMENTS = ("contiguous", "degree_balanced")

#: Wire size of one (distance, global id) top-k candidate: f64 + i64.
TOPK_PAIR_BYTES = 16

#: Wire size of one operand index (row extent or column id): int64 on
#: every device, so modeled volumes are a function of the partition alone.
OPERAND_INDEX_BYTES = 8


@dataclass(frozen=True)
class Panel:
    """One operand panel: its grid index and the global row ids it holds
    (sorted ascending, so panel-local order matches global order for
    tie-broken top-k merges)."""

    index: int
    row_ids: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.row_ids.size)


@dataclass(frozen=True)
class CommStep:
    """One priced point-to-point transfer in a partition's schedule.

    ``phase`` is one of ``"allgather.a"``, ``"allgather.b"``, ``"reduce"``,
    ``"gather"``; ``src``/``dst`` are flat device ids; ``nbytes`` is exact
    (derived from panel row counts and nnz, never a density estimate).
    """

    phase: str
    src: int
    dst: int
    nbytes: int


@dataclass(frozen=True)
class GridPartition:
    """An ``R × C`` device grid plus the operand panels assigned to it.

    Device ``(r, c)`` has flat id ``r * C + c``; it computes the output
    block ``A_r × B_c``.
    """

    name: str
    grid_rows: int
    grid_cols: int
    a_panels: Tuple[Panel, ...]
    b_panels: Tuple[Panel, ...]

    @property
    def n_devices(self) -> int:
        return self.grid_rows * self.grid_cols

    def device(self, r: int, c: int) -> int:
        """Flat device id of grid coordinate ``(r, c)``."""
        return r * self.grid_cols + c

    def coords(self, device: int) -> Tuple[int, int]:
        """Grid coordinate of a flat device id."""
        return divmod(int(device), self.grid_cols)


def grid_shape(name: str, n_devices: int) -> Tuple[int, int]:
    """The ``(R, C)`` grid a named shape tiles over ``n_devices``.

    ``2d`` picks the most-square factorization (C = largest divisor of p
    that is ≤ √p); a prime device count therefore degenerates to
    ``(p, 1)``, which is simply what "as square as possible" means there.
    ``1p5d`` fixes C = 2 and needs an even device count.
    """
    p = int(n_devices)
    if p < 1:
        raise PartitionConfigError(
            f"n_devices must be >= 1, got {n_devices}")
    if name == "1d_row":
        return (p, 1)
    if name == "1d_col":
        return (1, p)
    if name == "1p5d":
        if p % 2 != 0:
            raise PartitionConfigError(
                f"1p5d needs an even device count, got {p}")
        return (p // 2, 2)
    if name == "2d":
        c = max(d for d in range(1, int(p ** 0.5) + 1) if p % d == 0)
        return (p // c, c)
    raise PartitionConfigError(
        f"unknown partition {name!r}; expected one of {PARTITIONS}")


def valid_partitions(n_devices: int) -> Tuple[str, ...]:
    """The named shapes that can tile ``n_devices`` (1p5d needs even p)."""
    names = []
    for name in PARTITIONS:
        try:
            grid_shape(name, n_devices)
        except PartitionConfigError:
            continue
        names.append(name)
    if not names:
        raise PartitionConfigError(
            f"no partition shape tiles {n_devices} devices")
    return tuple(names)


def _cut_ids(csr: CSRMatrix, n_parts: int, placement: str,
             side: str) -> List[np.ndarray]:
    if n_parts > csr.n_rows:
        raise PartitionConfigError(
            f"cannot cut {csr.n_rows} {side} rows into {n_parts} panels")
    if placement == "contiguous":
        return list(np.array_split(np.arange(csr.n_rows, dtype=np.int64),
                                   n_parts))
    if placement == "degree_balanced":
        return balanced_split(csr, n_parts, axis=0)
    raise PartitionConfigError(
        f"unknown placement {placement!r}; expected one of {PLACEMENTS}")


def build_partition(name: str, a: CSRMatrix, b: CSRMatrix,
                    n_devices: int, *,
                    placement: str = "contiguous") -> GridPartition:
    """Cut operands ``a`` (queries) and ``b`` (corpus) for a named shape.

    ``placement="degree_balanced"`` reuses the serving layer's LPT greedy
    (:func:`repro.datasets.degree.balanced_split`) on both sides, so
    skewed operands get nnz-balanced panels instead of contiguous bands.
    """
    grid_rows, grid_cols = grid_shape(name, n_devices)
    a_ids = _cut_ids(a, grid_rows, placement, "query")
    b_ids = _cut_ids(b, grid_cols, placement, "corpus")
    return GridPartition(
        name=name, grid_rows=grid_rows, grid_cols=grid_cols,
        a_panels=tuple(Panel(i, ids) for i, ids in enumerate(a_ids)),
        b_panels=tuple(Panel(i, ids) for i, ids in enumerate(b_ids)))


def operand_panel_nbytes(n_rows: int, nnz: int, *,
                         n_norm_kinds: int = 0) -> int:
    """Exact wire size of an operand panel (CSR arrays + cached norms).

    Per row: one extent; per nonzero: one column id plus one f64 value;
    per row and norm kind: one cached f64 norm. Linear in ``(n_rows,
    nnz)`` with integer coefficients — deliberately, so panel sizes are
    additive and per-phase step sums match the closed-form volumes to the
    integer.
    """
    return (int(n_rows) * OPERAND_INDEX_BYTES
            + int(nnz) * (OPERAND_INDEX_BYTES + 8)
            + int(n_rows) * 8 * int(n_norm_kinds))


def _sub_slices(panel: Panel, n_parts: int) -> List[np.ndarray]:
    """A panel's initial-ownership sub-slices (contiguous over its ids)."""
    return list(np.array_split(panel.row_ids, n_parts))


def comm_schedule(partition: GridPartition, *,
                  a_degrees: np.ndarray, b_degrees: np.ndarray,
                  k: int, n_norm_kinds_a: int = 0,
                  n_norm_kinds_b: int = 0) -> Tuple[CommStep, ...]:
    """Every transfer the partition performs, in deterministic order.

    Four phases: (1) ``allgather.a`` — each device receives the missing
    sub-slices of its query panel from the other ``C - 1`` devices in its
    grid row; (2) ``allgather.b`` — likewise for its corpus panel within
    its grid column; (3) ``reduce`` — after compute, devices ``(r, c>0)``
    send their per-row partial top-k (``min(k, |B_c|)`` candidates per
    query row) to the row leader ``(r, 0)``; (4) ``gather`` — row leaders
    ``r > 0`` send their merged ``min(k, n)``-wide results to device 0.

    ``a_degrees`` / ``b_degrees`` are the operands' row-degree arrays, so
    sub-slice nnz (hence nbytes) is exact per transfer.
    """
    R, C = partition.grid_rows, partition.grid_cols
    a_degrees = np.asarray(a_degrees)
    b_degrees = np.asarray(b_degrees)
    n_total = int(sum(p.n_rows for p in partition.b_panels))
    k_final = min(int(k), n_total)
    steps: List[CommStep] = []

    for r in range(R):
        subs = _sub_slices(partition.a_panels[r], C)
        sizes = [operand_panel_nbytes(ids.size,
                                      int(a_degrees[ids].sum()),
                                      n_norm_kinds=n_norm_kinds_a)
                 for ids in subs]
        for dst_c in range(C):
            for src_c in range(C):
                if src_c == dst_c:
                    continue
                steps.append(CommStep(
                    phase="allgather.a",
                    src=partition.device(r, src_c),
                    dst=partition.device(r, dst_c),
                    nbytes=sizes[src_c]))

    for c in range(C):
        subs = _sub_slices(partition.b_panels[c], R)
        sizes = [operand_panel_nbytes(ids.size,
                                      int(b_degrees[ids].sum()),
                                      n_norm_kinds=n_norm_kinds_b)
                 for ids in subs]
        for dst_r in range(R):
            for src_r in range(R):
                if src_r == dst_r:
                    continue
                steps.append(CommStep(
                    phase="allgather.b",
                    src=partition.device(src_r, c),
                    dst=partition.device(dst_r, c),
                    nbytes=sizes[src_r]))

    for r in range(R):
        m_r = partition.a_panels[r].n_rows
        for c in range(1, C):
            k_c = min(int(k), partition.b_panels[c].n_rows)
            steps.append(CommStep(
                phase="reduce",
                src=partition.device(r, c),
                dst=partition.device(r, 0),
                nbytes=m_r * k_c * TOPK_PAIR_BYTES))

    for r in range(1, R):
        m_r = partition.a_panels[r].n_rows
        steps.append(CommStep(
            phase="gather",
            src=partition.device(r, 0),
            dst=partition.device(0, 0),
            nbytes=m_r * k_final * TOPK_PAIR_BYTES))

    return tuple(steps)


def analytic_comm_volume(partition: GridPartition, *,
                         a_nnz: int, b_nnz: int, k: int,
                         n_norm_kinds_a: int = 0,
                         n_norm_kinds_b: int = 0) -> Dict[str, int]:
    """Closed-form per-phase byte totals the step schedule must sum to.

    Writing S(rows, nnz) for :func:`operand_panel_nbytes` (linear, so
    panel sizes are additive), m = total query rows, n = total corpus
    rows:

    - ``allgather.a`` = (C − 1) · S(m, nnz_A): every query sub-slice is
      received by the C − 1 other devices in its grid row;
    - ``allgather.b`` = (R − 1) · S(n, nnz_B), symmetrically;
    - ``reduce`` = 16 · m · Σ_{c≥1} min(k, |B_c|);
    - ``gather`` = 16 · (m − |A_0|) · min(k, n).

    The 2-D advantage is visible directly: 1-D pays ``(p − 1)`` times one
    whole operand while a √p × √p grid pays ``(√p − 1)`` times each, which
    is strictly less for comparable operands once p ≥ 4.
    """
    R, C = partition.grid_rows, partition.grid_cols
    m = sum(p.n_rows for p in partition.a_panels)
    n = sum(p.n_rows for p in partition.b_panels)
    reduce_width = sum(min(int(k), partition.b_panels[c].n_rows)
                       for c in range(1, C))
    return {
        "allgather.a": (C - 1) * operand_panel_nbytes(
            m, a_nnz, n_norm_kinds=n_norm_kinds_a),
        "allgather.b": (R - 1) * operand_panel_nbytes(
            n, b_nnz, n_norm_kinds=n_norm_kinds_b),
        "reduce": TOPK_PAIR_BYTES * m * reduce_width,
        "gather": TOPK_PAIR_BYTES * (m - partition.a_panels[0].n_rows)
        * min(int(k), n),
    }


def bytes_by_link(steps, phase: Optional[str] = None) -> Dict[Tuple[int, int], int]:
    """Total bytes per ``(src, dst)`` pair, optionally for one phase."""
    totals: Dict[Tuple[int, int], int] = {}
    for step in steps:
        if phase is not None and step.phase != phase:
            continue
        key = (step.src, step.dst)
        totals[key] = totals.get(key, 0) + step.nbytes
    return totals
