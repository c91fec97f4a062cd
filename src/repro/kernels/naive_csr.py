"""Algorithm 2: naive full-union CSR kernel (one thread per vector pair).

Each GPU thread merges the sorted nonzeros of one (A_i, B_j) pair
exhaustively. The paper keeps this design as the *baseline* for distances
cuSPARSE cannot express (Table 3's "Baseline" column for the NAMM metrics),
and §3.2.2 explains why it loses: neighboring threads walk rows with
different degree distributions, so

- global loads are **uncoalesced** (each lane chases its own row pointers);
- warps **diverge** badly (a warp runs until its slowest lane's merge ends);
- ⊗ is evaluated exhaustively even when a dot-product semiring would have
  let the kernel skip non-intersecting columns.

All three pathologies are counted here, vectorized from the degree arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.semiring import Semiring
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.memory import coalesced_transactions, uncoalesced_transactions
from repro.gpusim.stats import KernelStats
from repro.kernels.base import PairwiseKernel, product_cost_profile
from repro.sparse.csr import CSRMatrix

__all__ = ["NaiveCsrKernel"]


class NaiveCsrKernel(PairwiseKernel):
    """One thread per output element, exhaustive sorted-nonzero merge."""

    name = "naive_csr"
    #: threads per block, one output element each
    BLOCK_THREADS = 256

    def schedule(self, a: CSRMatrix, b: CSRMatrix,
                 semiring: Semiring) -> LaunchSchedule:
        # The merge always walks the full union; for annihilating semirings
        # the non-intersecting terms evaluate to id⊕, so the *values* match
        # the intersection semantics while the *work* stays exhaustive.
        pairs = a.n_rows * b.n_rows
        return LaunchSchedule((Launch(
            self._count(a, b, semiring),
            grid_blocks=max(1, -(-pairs // self.BLOCK_THREADS)),
            block_threads=self.BLOCK_THREADS, regs_per_thread=40),))

    # ------------------------------------------------------------------
    def _count(self, a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> KernelStats:
        stats = KernelStats()
        deg_a = a.row_degrees().astype(np.float64)
        deg_b = b.row_degrees().astype(np.float64)
        m, n = a.n_rows, b.n_rows
        alu_prod, special_prod = product_cost_profile(semiring)

        # Each pair's merge runs deg_a[i] + deg_b[j] iterations.
        total_iters = float(n * deg_a.sum() + m * deg_b.sum())

        # Every iteration: 2 bounds checks + 2 column compares + product +
        # reduce; and 2 uncoalesced element loads (column index + value from
        # whichever side advances).
        stats.alu_ops += total_iters * (4.0 + alu_prod + 1.0)
        stats.special_ops += total_iters * special_prod
        loads = total_iters * 2.0
        stats.gmem_transactions += uncoalesced_transactions(int(loads))
        stats.uncoalesced_loads += loads

        # Warp divergence: threads are assigned pairs row-major, so a warp
        # covers 32 consecutive j's of one i. The warp runs until its
        # longest merge finishes; shorter lanes idle. Wasted lane-iterations
        # per warp chunk w: 32*max(deg_b[chunk]) - sum(deg_b[chunk]) —
        # independent of i because deg_a[i] is constant within the warp.
        warp = self.spec.warp_size
        pad = (-n) % warp
        padded = np.concatenate([deg_b, np.zeros(pad)]) if pad else deg_b
        chunks = padded.reshape(-1, warp)
        wasted_per_row = float(
            (warp * chunks.max(axis=1) - chunks.sum(axis=1)).sum())
        stats.divergent_branches += wasted_per_row * m

        # Output store: one per pair, coalesced within a warp's row-major
        # assignment.
        stats.gmem_transactions += coalesced_transactions(m * n, itemsize=4)
        return stats
