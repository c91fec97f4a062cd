"""Tile-launch accounting: device-memory footprint of a tiled execution plan.

The execution-plan layer (:mod:`repro.plan`) decomposes one pairwise job
into a grid of output tiles and runs each tile as its own sequence of kernel
launches, optionally on several concurrent workers (the stand-in for CUDA
streams or multiple GPUs). :meth:`Launch.execute` already prices the *time*
of each launch; this module accounts for the *memory* story the paper tells
in §4.3 — the dense output block plus the kernel workspace is what forces
batching in the first place — so the benches can report the peak bytes a
plan would ever hold resident on the device.

The residency model is deterministic and matches the executor's scheduling
model: tiles are assigned to the ``n_workers`` workers round-robin in tile
order, so at any instant at most one *round* of ``n_workers`` consecutive
tiles is resident. Peak residency is the maximum round footprint, which
collapses to the single largest tile when ``n_workers == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["TileLaunchRecord", "TileAccountant"]


@dataclass(frozen=True)
class TileLaunchRecord:
    """Memory/time footprint of one executed output tile."""

    tile_index: int
    rows_a: int
    rows_b: int
    #: bytes of the tile's dense output block
    output_bytes: float
    #: peak device workspace the tile's kernel launches requested
    workspace_bytes: float
    #: simulated seconds the tile's launches took (summed)
    seconds: float

    @property
    def resident_bytes(self) -> float:
        """Device bytes held while the tile is in flight (output + scratch)."""
        return self.output_bytes + self.workspace_bytes


class TileAccountant:
    """Accumulates :class:`TileLaunchRecord` entries for one plan execution."""

    def __init__(self, n_workers: int = 1):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers)
        self.records: List[TileLaunchRecord] = []

    def record(self, record: TileLaunchRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return len(self.records)

    @property
    def total_output_bytes(self) -> float:
        return float(sum(r.output_bytes for r in self.records))

    @property
    def peak_tile_bytes(self) -> float:
        """Largest single-tile residency (output block + workspace)."""
        return max((r.resident_bytes for r in self.records), default=0.0)

    @property
    def peak_resident_bytes(self) -> float:
        """Peak device bytes under round-robin worker scheduling.

        Round ``r`` holds tiles ``[r * n_workers, (r + 1) * n_workers)`` (in
        tile order) resident simultaneously; the peak is the largest round.
        Deterministic by construction — it depends on the plan's tile order,
        never on which thread happened to finish first.
        """
        ordered = sorted(self.records, key=lambda r: r.tile_index)
        peak = 0.0
        for start in range(0, len(ordered), self.n_workers):
            footprint = sum(r.resident_bytes
                            for r in ordered[start:start + self.n_workers])
            peak = max(peak, footprint)
        return peak

    def as_dict(self) -> Dict[str, float]:
        """Summary row for the bench tables."""
        return {
            "n_tiles": float(self.n_tiles),
            "n_workers": float(self.n_workers),
            "peak_tile_bytes": self.peak_tile_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "total_output_bytes": self.total_output_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TileAccountant(n_tiles={self.n_tiles}, "
                f"n_workers={self.n_workers}, "
                f"peak_resident_bytes={self.peak_resident_bytes:.3g})")
