"""Pluggable sinks for finished tiles.

The executor evaluates every tile's distances once, in row bands, into a
per-tile sink the consumer provides (:meth:`TileConsumer.tile_sink`); the
sink's payload reaches :meth:`TileConsumer.consume` **in tile order**
regardless of which worker finished first. Three consumers cover the
pipeline's workloads:

- :class:`DenseBlockConsumer` materializes the full distance matrix
  (the classic ``pairwise_distances`` contract);
- :class:`TopKConsumer` selects each band's k best as it arrives and folds
  each tile's picks into a streaming per-query top-k, never holding more
  than one band plus the k-best state (the paper's §4.2 "scale past device
  memory" path);
- :class:`CallbackConsumer` forwards tiles to user code for out-of-core
  workloads (spill to disk, ship to another device, online aggregation).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Tuple

import numpy as np

from repro.plan.pairwise_plan import PairwisePlan
from repro.plan.tiling import Tile

__all__ = ["TileConsumer", "TileSink", "DenseBlockConsumer", "TopKConsumer",
           "CallbackConsumer"]


class TileSink:
    """Collects one tile's row bands into its delivery payload.

    The executor calls the sink with each band ``(r0, r1, rows)`` — tile
    rows ``[r0, r1)``, every column, expansion/finalize applied — in row
    order on the tile's worker, then hands :meth:`payload` to
    :meth:`TileConsumer.consume`. ``rows`` is valid only until the call
    returns: the worker's next band reuses its buffer, so a sink copies
    what it keeps. A sink holds this tile's state only, so a tile that is
    computed but never delivered folds nothing. This one copies each band
    into the dense ``(tile.rows_a, tile.rows_b)`` block.
    """

    def __init__(self, tile: Tile):
        self._block = np.empty((tile.rows_a, tile.rows_b), dtype=np.float64)

    def __call__(self, r0: int, r1: int, rows: np.ndarray) -> None:
        self._block[r0:r1] = rows

    def payload(self):
        return self._block


class TileConsumer(abc.ABC):
    """Receives each finished tile's payload, in tile order.

    Consumers double as **checkpoints**: the executor stamps
    ``delivered_watermark`` after every in-order delivery, so when an
    execution aborts (see :meth:`abort`) the watermark says exactly how
    many leading tiles this consumer already folded. Re-running the plan
    with ``PlanExecutor.execute(consumer, resume_from=watermark)`` on the
    *same* consumer instance completes the job without recomputing the
    delivered prefix.
    """

    #: number of leading tiles delivered in order (``consume`` calls that
    #: completed); maintained entirely by the executor
    delivered_watermark: int = 0

    def begin(self, plan: PairwisePlan) -> None:
        """Called once before the first tile; allocate state here."""

    def tile_sink(self, tile: Tile) -> TileSink:
        """A fresh sink for one tile's bands; called on the tile's worker,
        so it may read the consumer's configuration but not its folded
        state. Each band it receives is reused once the sink returns, so
        the sink copies what it keeps. The default payload is the dense
        distance block."""
        return TileSink(tile)

    @abc.abstractmethod
    def consume(self, tile: Tile, distances) -> None:
        """Fold one finished tile's payload. With the default
        :meth:`tile_sink`, ``distances`` is the dense
        ``(tile.rows_a, tile.rows_b)`` block, expansion/finalize applied."""

    def abort(self, error: Exception) -> None:
        """Called when the execution fails before delivering every tile.

        Whatever the consumer holds is a *prefix*, not a result — override
        to release resources or mark partial output, but keep the folded
        state intact if resumption should be possible. The base
        implementation keeps state and does nothing.
        """

    def result(self):
        """The consumer's final product (after the last tile)."""
        return None


class DenseBlockConsumer(TileConsumer):
    """Materialize the full ``(n_rows_a, n_rows_b)`` distance matrix."""

    def __init__(self):
        self._out: np.ndarray = np.zeros((0, 0))

    def begin(self, plan: PairwisePlan) -> None:
        self._out = np.zeros(plan.shape, dtype=np.float64)

    def consume(self, tile: Tile, distances: np.ndarray) -> None:
        self._out[tile.a0:tile.a1, tile.b0:tile.b1] = distances

    def result(self) -> np.ndarray:
        return self._out


class _TopKSink(TileSink):
    """Selects each band's k best; the payload is the tile's
    ``(values, global ids)`` picks."""

    def __init__(self, tile: Tile, k: int):
        kk = min(k, tile.rows_b)
        self._k, self._b0 = k, tile.b0
        self._values = np.empty((tile.rows_a, kk), dtype=np.float64)
        self._indices = np.empty((tile.rows_a, kk), dtype=np.int64)

    def __call__(self, r0: int, r1: int, rows: np.ndarray) -> None:
        from repro.neighbors.topk import select_topk

        values, indices = select_topk(rows, self._k)
        self._values[r0:r1] = values
        self._indices[r0:r1] = indices + self._b0

    def payload(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._values, self._indices


class TopKConsumer(TileConsumer):
    """Streaming k-NN fold: keep each query row's k nearest across tiles.

    Each tile's sink selects its bands' k best on the worker; at delivery
    the tile's picks merge into one :class:`TopKAccumulator` per A band.
    Selection is row-independent and every merge orders by ``(value,
    id)``, so results are bit-identical to materializing the full block
    and selecting afterwards.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._accs: List = []
        self._n_rows = 0

    def begin(self, plan: PairwisePlan) -> None:
        # Imported here, not at module scope: repro.neighbors itself builds
        # on this package, and a top-level import would close the cycle.
        from repro.neighbors.topk import TopKAccumulator

        grid = plan.grid
        self._accs = [
            TopKAccumulator(int(grid.row_starts_a[i + 1] -
                                grid.row_starts_a[i]), self.k)
            for i in range(grid.n_bands_a)
        ]
        self._n_rows = plan.a.n_rows

    def tile_sink(self, tile: Tile) -> TileSink:
        return _TopKSink(tile, self.k)

    def consume(self, tile: Tile,
                distances: Tuple[np.ndarray, np.ndarray]) -> None:
        self._accs[tile.band_a].update_pairs(*distances)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, indices)`` stacked over all A bands."""
        if not self._accs:
            return (np.zeros((self._n_rows, 0)),
                    np.zeros((self._n_rows, 0), dtype=np.int64))
        parts = [acc.finalize() for acc in self._accs]
        return (np.concatenate([p[0] for p in parts], axis=0),
                np.concatenate([p[1] for p in parts], axis=0))


class CallbackConsumer(TileConsumer):
    """Forward each tile to a user callback ``fn(tile, distances)``.

    The callback runs on the executor's delivery thread in tile order, so
    out-of-core writers need no locking of their own.
    """

    def __init__(self, fn: Callable[[Tile, np.ndarray], None]):
        self._fn = fn

    def consume(self, tile: Tile, distances: np.ndarray) -> None:
        self._fn(tile, distances)
