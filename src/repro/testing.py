"""Shared seeded data generators for tests, property suites, and benches.

Historically ``tests/conftest.py`` and the individual benchmark modules
each hand-rolled their own ``np.random.default_rng`` matrices; this module
is the single home for those generators so property tests, golden
fixtures, and benches all draw from the same distributions. Import it from
anywhere (it depends only on :mod:`repro.sparse`):

    from repro.testing import random_csr, seeded_rng, skewed_dense

Everything takes an explicit :class:`numpy.random.Generator` (or a seed),
so call sites stay reproducible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["seeded_rng", "random_dense", "random_csr", "skewed_dense",
           "skewed_csr", "DEFAULT_SEED", "MutationOp", "MutationOracle",
           "random_mutation_schedule"]

#: The suite-wide default seed (the value tests/conftest.py always used).
DEFAULT_SEED = 1234


def seeded_rng(seed: Union[int, np.random.Generator] = DEFAULT_SEED,
               ) -> np.random.Generator:
    """A fresh deterministic generator (pass-through for generators)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_dense(rng: np.random.Generator, m: int, k: int,
                 density: float = 0.3, *,
                 positive: bool = False) -> np.ndarray:
    """A dense array with approximately the requested fraction of nonzeros.

    ``positive=True`` keeps every value strictly positive (valid input for
    KL / Jensen-Shannon / Hellinger); otherwise values are mixed-sign.
    """
    values = rng.random((m, k)) + (0.01 if positive else 0.0)
    if not positive:
        values = values * rng.choice([-1.0, 1.0], size=(m, k))
    mask = rng.random((m, k)) < density
    return values * mask


def random_csr(rng: np.random.Generator, m: int, k: int,
               density: float = 0.3, *, positive: bool = False) -> CSRMatrix:
    """A random CSR matrix (see :func:`random_dense`)."""
    return CSRMatrix.from_dense(random_dense(rng, m, k, density,
                                             positive=positive))


def skewed_dense(m: int = 256, k: int = 4096, *, seed: int = 11,
                 scale: int = 40, floor: int = 5,
                 cap: int = 2000) -> np.ndarray:
    """Skewed-degree rows in the regime the paper's datasets occupy (tens
    to thousands of nonzeros per row, Pareto-distributed) — large enough
    that Algorithm 1's sort and Algorithm 2's divergence actually bite.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros((m, k))
    for i in range(m):
        deg = min(cap, min(k, int(rng.pareto(1.3) * scale) + floor))
        cols = rng.choice(k, size=deg, replace=False)
        x[i, cols] = rng.random(deg) + 0.05
    return x


def skewed_csr(m: int = 256, k: int = 4096, *, seed: int = 11,
               scale: int = 40, floor: int = 5, cap: int = 2000) -> CSRMatrix:
    """CSR form of :func:`skewed_dense`."""
    return CSRMatrix.from_dense(skewed_dense(m, k, seed=seed, scale=scale,
                                             floor=floor, cap=cap))


# ---------------------------------------------------------------------------
# mutable-index differential harness: op schedules + fresh-fit oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MutationOp:
    """One step of a mutable-index schedule.

    ``kind`` is one of ``"upsert"`` (``ids`` + dense ``rows`` block),
    ``"delete"`` (``ids``, possibly blind), ``"compact"`` /
    ``"rebalance"`` (``placement`` optionally re-targets), or ``"query"``
    (a differential checkpoint — the harness compares the index against a
    fresh fit of the oracle corpus here, and after every other op too).
    """

    kind: str
    ids: Tuple[int, ...] = ()
    rows: Optional[np.ndarray] = None
    placement: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", ids={list(self.ids)}" if self.ids else ""
        return f"MutationOp({self.kind!r}{extra})"


class MutationOracle:
    """A dict-backed model of the live corpus: id → dense raw row.

    The oracle applies the same schedule the index does; at any point
    :meth:`corpus` is exactly the matrix a fresh
    :class:`~repro.neighbors.NearestNeighbors` fit would be given, and
    :meth:`fresh_fit_kneighbors` runs that fit — the bit-identity
    reference for the differential suites.
    """

    def __init__(self, n_cols: int):
        self.n_cols = int(n_cols)
        self._rows: Dict[int, np.ndarray] = {}

    def apply(self, op: MutationOp) -> None:
        if op.kind == "upsert":
            for j, gid in enumerate(op.ids):
                self._rows[int(gid)] = np.asarray(op.rows[j], dtype=float)
        elif op.kind == "delete":
            for gid in op.ids:
                self._rows.pop(int(gid), None)
        elif op.kind not in ("compact", "rebalance", "query"):
            raise ValueError(f"unknown mutation op kind {op.kind!r}")

    def live_ids(self) -> np.ndarray:
        return np.fromiter(sorted(self._rows), dtype=np.int64,
                           count=len(self._rows))

    def corpus(self) -> np.ndarray:
        """Dense live corpus, rows ascending by id."""
        ids = self.live_ids()
        out = np.zeros((ids.size, self.n_cols))
        for i, gid in enumerate(ids):
            out[i] = self._rows[int(gid)]
        return out

    def fresh_fit_kneighbors(self, queries, n_neighbors: int, *,
                             metric: str = "euclidean",
                             metric_params: Optional[dict] = None,
                             engine: str = "hybrid_coo",
                             ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, global_ids)`` from a from-scratch fit of the
        live corpus — what the mutable index must reproduce bitwise."""
        from repro.neighbors import NearestNeighbors

        ids = self.live_ids()
        nn = NearestNeighbors(n_neighbors=n_neighbors, metric=metric,
                              metric_params=metric_params,
                              engine=engine).fit(self.corpus())
        distances, indices = nn.kneighbors(
            queries, min(n_neighbors, ids.size))
        return distances, ids[indices]


def random_mutation_schedule(seed: int, *, n_ops: int = 24,
                             n_cols: int = 8, id_pool: int = 64,
                             start_rows: int = 24, density: float = 0.4,
                             max_batch: int = 4,
                             include_reshard: bool = False,
                             protected_rows: int = 4,
                             ) -> Tuple[np.ndarray, List[MutationOp]]:
    """A seeded ``(initial corpus, op list)`` schedule for the harness.

    Upserts draw ids from ``[0, id_pool)`` — overwrites, reinserts after
    deletion, and brand-new ids all occur naturally. The first
    ``protected_rows`` ids are never deleted, keeping the live corpus at
    least that large (so multi-shard layouts stay buildable throughout).
    Deletes include blind tombstones for ids that were never inserted.
    """
    rng = seeded_rng(seed)
    initial = random_dense(rng, start_rows, n_cols, density)
    # Keep protected rows nonzero so degree-balanced placement always has
    # load to spread.
    for i in range(min(protected_rows, start_rows)):
        if not initial[i].any():
            initial[i, int(rng.integers(n_cols))] = 1.0 + rng.random()
    kinds = ["upsert", "delete", "compact", "query"]
    weights = [0.40, 0.25, 0.15, 0.20]
    if include_reshard:
        kinds.append("rebalance")
        weights = [0.35, 0.25, 0.12, 0.18, 0.10]
    ops: List[MutationOp] = []
    for _ in range(n_ops):
        kind = str(rng.choice(kinds, p=np.asarray(weights) / sum(weights)))
        if kind == "upsert":
            n = int(rng.integers(1, max_batch + 1))
            ids = rng.choice(id_pool, size=n, replace=False)
            rows = random_dense(rng, n, n_cols, density)
            ops.append(MutationOp("upsert", tuple(int(i) for i in ids),
                                  rows=rows))
        elif kind == "delete":
            n = int(rng.integers(1, max_batch + 1))
            ids = rng.choice(np.arange(protected_rows, id_pool), size=n,
                             replace=False)
            ops.append(MutationOp("delete", tuple(int(i) for i in ids)))
        elif kind == "rebalance":
            ops.append(MutationOp("rebalance", placement="degree_balanced"))
        else:
            ops.append(MutationOp(kind))
    return initial, ops
