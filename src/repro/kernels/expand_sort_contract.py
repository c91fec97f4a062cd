"""Algorithm 1: expand-sort-contract kernel (the paper's first attempt).

One thread block per (A_i, B_j) pair: concatenate both rows' nonzeros into
shared memory ("expand"), sort them by column, then reduce duplicate columns
with ⊗ and fold everything with ⊕ ("contract"). Section 3.2.1 explains why
it was abandoned:

- the **sort dominates** runtime (counted here as compare-exchange steps of
  a bitonic network, Θ(L log² L) per pair);
- shared memory must hold ``2 * (nnz(a) + nnz(b))`` entries (columns and
  values), which both caps the schedulable pair sizes and crushes occupancy;
- ``m * n`` blocks must be scheduled.

We keep it as an honest ablation baseline; it raises
:class:`~repro.errors.KernelLaunchError` when a pair cannot fit in shared
memory, exactly like the real kernel would fail to launch.
"""

from __future__ import annotations

import numpy as np

from repro.core.semiring import Semiring
from repro.errors import KernelLaunchError
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.memory import coalesced_transactions
from repro.gpusim.stats import KernelStats
from repro.kernels.base import PairwiseKernel, product_cost_profile
from repro.sparse.csr import CSRMatrix

__all__ = ["ExpandSortContractKernel"]

#: Bytes per expanded element: column index + value, kept together in
#: shared memory during the sort (4 + 4).
_EXPAND_ITEM_BYTES = 8


class ExpandSortContractKernel(PairwiseKernel):
    """One block per pair: expand into smem, sort-by-key, contract."""

    name = "expand_sort_contract"
    #: threads per block; each block expands, sorts and contracts one pair
    BLOCK_THREADS = 128

    def schedule(self, a: CSRMatrix, b: CSRMatrix,
                 semiring: Semiring) -> LaunchSchedule:
        max_pair = int(a.max_degree() + b.max_degree())
        smem = 2 * max_pair * _EXPAND_ITEM_BYTES
        if smem > self.spec.smem_per_block_max_bytes:
            raise KernelLaunchError(
                f"expand-sort-contract needs {smem} B shared memory for the "
                f"largest row pair ({max_pair} nonzeros); device allows "
                f"{self.spec.smem_per_block_max_bytes} B — this is the "
                "paper's §3.2.1 'severe limit to scale'")
        return LaunchSchedule((Launch(
            self._count(a, b, semiring), grid_blocks=a.n_rows * b.n_rows,
            block_threads=self.BLOCK_THREADS, smem_per_block=smem,
            regs_per_thread=32),))

    # ------------------------------------------------------------------
    def _count(self, a: CSRMatrix, b: CSRMatrix, semiring: Semiring) -> KernelStats:
        stats = KernelStats()
        deg_a = a.row_degrees().astype(np.float64)
        deg_b = b.row_degrees().astype(np.float64)
        m, n = a.n_rows, b.n_rows
        alu_prod, special_prod = product_cost_profile(semiring)

        # Expanded length per pair: L[i, j] = deg_a[i] + deg_b[j].
        sum_a, sum_b = deg_a.sum(), deg_b.sum()
        total_len = float(n * sum_a + m * sum_b)

        # Expand: coalesced copies of both rows into shared memory.
        stats.gmem_transactions += coalesced_transactions(
            int(total_len) * 2, itemsize=4)
        stats.smem_accesses += total_len * 2  # write cols + values

        # Sort: bitonic network, (L/2) * log2(L) * (log2(L)+1) / 2 compare-
        # exchange steps per pair, each touching shared memory twice.
        # Computed exactly with an outer sum over degree histograms.
        sort_steps = self._bitonic_steps_total(deg_a, deg_b)
        stats.sort_steps += sort_steps
        stats.smem_accesses += sort_steps * 2.0

        # Contract: linear scan, one compare + possible ⊗ + ⊕ per element.
        stats.alu_ops += total_len * (2.0 + alu_prod + 1.0)
        stats.special_ops += total_len * special_prod
        stats.smem_accesses += total_len

        # Output store, one scalar per pair.
        stats.gmem_transactions += coalesced_transactions(m * n, itemsize=4)
        return stats

    @staticmethod
    def _bitonic_steps_total(deg_a: np.ndarray, deg_b: np.ndarray,
                             chunk: int = 512) -> float:
        """Σ_{i,j} bitonic compare-exchanges for L = deg_a[i] + deg_b[j]."""
        total = 0.0
        for start in range(0, deg_a.size, chunk):
            la = deg_a[start:start + chunk][:, None] + deg_b[None, :]
            lg = np.ceil(np.log2(np.maximum(la, 2.0)))
            total += float(np.sum(0.5 * la * lg * (lg + 1) * 0.5))
        return total
