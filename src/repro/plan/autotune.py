"""Cost-model autotuner: engine × tile shape × row-cache selection.

``build_pairwise_plan(engine="auto")`` delegates here. The tuner probes the
prepared operands' degree distributions (:class:`OperandProbe`), prices
every *runnable* candidate configuration's launch schedule
(:meth:`~repro.kernels.base.PairwiseKernel.estimate_seconds` — the very
schedule the executor will launch) and picks the argmin. Because estimates
are exact for single-tile plans, on a monolithic job the chosen
configuration is by construction the one the fixed-configuration sweep
would also crown.

The candidate set is every ``tunable`` registered engine (``hybrid_coo``
and ``merge_path``), with each row cache the device can express, not a
heuristic shortlist:

- dense, when one staged row fits shared memory (``n_cols × 4 B ≤ smem``);
- hash — always runnable;
- none, for engines (like ``merge_path``) without a row cache.

The bloom strategy stays out of ``auto``: the paper (§3.3.2) found no
a-priori rule for when its false positives pay off, and the cost model
inherits that uncertainty. Explicit ``row_cache="bloom"`` remains available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.semiring import Semiring
from repro.gpusim.cost_model import OperandProbe
from repro.gpusim.specs import DeviceSpec, VOLTA_V100
from repro.kernels.engine import available_engines, engine_info
from repro.kernels.strategy import DENSE_ITEM_BYTES, max_entries_per_block

__all__ = ["Autotuner", "CandidateEstimate", "TuningChoice"]


@dataclass(frozen=True)
class CandidateEstimate:
    """One evaluated configuration and its estimated seconds."""

    engine: str
    row_cache: Optional[str]
    max_tile_rows_b: Optional[int]
    estimated_seconds: float

    def as_dict(self) -> dict:
        return {"engine": self.engine, "row_cache": self.row_cache,
                "max_tile_rows_b": self.max_tile_rows_b,
                "estimated_seconds": self.estimated_seconds}


@dataclass(frozen=True)
class TuningChoice:
    """The autotuner's decision plus everything that produced it."""

    engine: str
    row_cache: Optional[str]
    max_tile_rows_b: Optional[int]
    estimated_seconds: float
    candidates: Tuple[CandidateEstimate, ...]
    probe_a: OperandProbe
    probe_b: OperandProbe

    def engine_kwargs(self) -> dict:
        """kwargs for :func:`repro.kernels.make_engine`."""
        return {} if self.row_cache is None else {"row_cache": self.row_cache}

    def as_dict(self) -> dict:
        return {"engine": self.engine, "row_cache": self.row_cache,
                "max_tile_rows_b": self.max_tile_rows_b,
                "estimated_seconds": self.estimated_seconds,
                "candidates": [c.as_dict() for c in self.candidates],
                "probe_a": self.probe_a.as_dict(),
                "probe_b": self.probe_b.as_dict()}


class Autotuner:
    """Pick (engine, row_cache, tile shape) from cost-model dry runs."""

    def __init__(self, spec: DeviceSpec = VOLTA_V100):
        self.spec = spec

    # ------------------------------------------------------------------
    def engine_candidates(self, a, b) -> List[Tuple[str, Optional[str]]]:
        """(engine, row_cache) pairs the device can run on these operands,
        over the ``tunable`` engines in registry order."""
        row_caches = ["hash"]
        if a.n_cols * DENSE_ITEM_BYTES <= self.spec.smem_per_block_max_bytes:
            row_caches.insert(0, "dense")
        candidates: List[Tuple[str, Optional[str]]] = []
        for name in available_engines():
            info = engine_info(name)
            if not info.tunable:
                continue
            if not info.row_cache_strategies:
                candidates.append((name, None))
            candidates.extend((name, rc) for rc in row_caches
                              if rc in info.row_cache_strategies)
        return candidates

    def tile_candidates(self, a, b) -> List[Optional[int]]:
        """``max_tile_rows_b`` values worth pricing.

        ``None`` (let the memory budget decide — monolithic when it fits)
        plus one genuine split, so the tuner demonstrably *prices* tiling
        rather than assuming it away. The split re-streams the staged side
        and pays a second launch set, so the model prefers ``None``
        whenever the budget allows — which is the honest answer under a
        cost model whose launch overhead is real.
        """
        if b.n_rows >= 2:
            return [None, int(math.ceil(b.n_rows / 2))]
        return [None]

    # ------------------------------------------------------------------
    def tune(self, a, b, semiring) -> TuningChoice:
        """Choose a configuration for the prepared CSR operands.

        ``semiring`` may be a :class:`~repro.core.semiring.Semiring` or
        anything carrying one as ``.semiring`` (a distance measure).
        """
        if not isinstance(semiring, Semiring):
            semiring = semiring.semiring
        probe_a = OperandProbe.from_csr(
            a, partition_budget=max_entries_per_block(self.spec))
        probe_b = OperandProbe.from_csr(
            b, partition_budget=max_entries_per_block(self.spec))

        candidates: List[CandidateEstimate] = []
        for engine, row_cache in self.engine_candidates(a, b):
            kwargs = {} if row_cache is None else {"row_cache": row_cache}
            kernel = engine_info(engine).make(self.spec, **kwargs)
            for max_rows_b in self.tile_candidates(a, b):
                candidates.append(CandidateEstimate(
                    engine=engine, row_cache=row_cache,
                    max_tile_rows_b=max_rows_b,
                    estimated_seconds=self._estimate(
                        kernel, a, b, semiring, max_rows_b)))
        if not candidates:
            raise RuntimeError(
                "autotuner found no runnable candidate configuration")
        # Deterministic argmin: estimate, then name/strategy/tile
        # tie-breaks, so identical operands always produce the identical
        # choice.
        best = min(candidates, key=lambda c: (
            c.estimated_seconds, c.engine, c.row_cache or "",
            c.max_tile_rows_b or 0))
        return TuningChoice(
            engine=best.engine, row_cache=best.row_cache,
            max_tile_rows_b=best.max_tile_rows_b,
            estimated_seconds=best.estimated_seconds,
            candidates=tuple(candidates), probe_a=probe_a, probe_b=probe_b)

    # ------------------------------------------------------------------
    @staticmethod
    def _estimate(kernel, a, b, semiring, max_rows_b: Optional[int]) -> float:
        """The configuration's priced schedules, summed over b-bands."""
        if max_rows_b is None:
            return kernel.estimate_seconds(a, b, semiring)
        total = 0.0
        for lo in range(0, b.n_rows, max_rows_b):
            band = b.slice_rows(lo, min(lo + max_rows_b, b.n_rows))
            total += kernel.estimate_seconds(a, band, semiring)
        return total
