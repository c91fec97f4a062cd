"""cuSPARSE ``csrgemm()``-style baseline (dot-product-only sparse matmul).

This models the incumbent the paper benchmarks against: a highly-tuned
general sparse-sparse matrix multiply whose inner product is *fixed* to the
arithmetic dot product. Its costs, per the paper:

- **explicit transpose of B** (§2: CSR admits no zero-copy transpose, so a
  full copy is paid before the multiply);
- a **sparse output** in CSR form whose density depends entirely on the
  dataset (§4.3: ≥57% on MovieLens, 98% on NY Times, 100% on scRNA) and
  which must then be **converted to dense** for the distance expansion —
  at ≥50% density the CSR output alone already costs as much as the dense
  matrix;
- a large **internal workspace** (§4.3: 300-550 MB per batch, nearly
  independent of input), modeled as intermediate-product accumulators;
- it simply **cannot express NAMM semirings** — calling it with one raises
  :class:`~repro.errors.SemiringError`, which is why Table 3's baseline for
  the non-trivial metrics falls back to :class:`NaiveCsrKernel`.

Being a tuned dense-ish pipeline, its per-intersection arithmetic is cheap
and its reads coalesce reasonably well; both are class constants.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from repro.core.semiring import Semiring
from repro.errors import SemiringError
from repro.gpusim.executor import Launch, LaunchSchedule
from repro.gpusim.memory import coalesced_transactions, uncoalesced_transactions
from repro.gpusim.stats import KernelStats
from repro.kernels import register_engine
from repro.kernels.base import PairwiseKernel
from repro.kernels.coo_spmv import _total_intersections
from repro.kernels.functional import co_occurrence_counts
from repro.sparse.csr import CSRMatrix

__all__ = ["CsrGemmKernel", "CsrGemmProfile"]


@dataclass(frozen=True)
class CsrGemmProfile:
    """Diagnostics of one multiply (§4.3's memory behaviour)."""

    #: density of the sparse output before densification
    output_density: float
    workspace_bytes: float


@register_engine
class CsrGemmKernel(PairwiseKernel):
    """Dot-product sparse matmul with transpose, sparse output + densify."""

    name = "csrgemm"

    #: §4.3: "cuSPARSE required an internal temporary workspace in device
    #: memory with anywhere from 300mb to 550mb of additional memory per
    #: batch ... the size of this temporary workspace seemed almost
    #: identical even when computed on [much sparser] graphs" — i.e. it is
    #: effectively a constant floor, not input-proportional.
    WORKSPACE_FLOOR_BYTES = 384 * 1024 * 1024
    #: B^T elements one partially coalesced gather transaction delivers
    READ_ELEMENTS_PER_TRANSACTION = 24.0
    #: one FMA + one accumulator update per intersecting element
    FLOPS_PER_INTERSECTION = 2.0
    #: kernels in the internal pipeline (one priced, the rest launch-only)
    N_INTERNAL_KERNELS = 4

    @property
    def last_output_density(self):
        """Density of the last multiply's sparse output (None before a run)."""
        profiles = self.last_profiles
        return profiles[0].output_density if profiles else None

    @property
    def last_workspace_bytes(self):
        profiles = self.last_profiles
        return profiles[0].workspace_bytes if profiles else None

    # ------------------------------------------------------------------
    def schedule(self, a: CSRMatrix, b: CSRMatrix,
                 semiring: Semiring) -> LaunchSchedule:
        if semiring.requires_union:
            raise SemiringError(
                "csrgemm fixes the inner product to the dot product semiring "
                "and cannot evaluate a NAMM over the nonzero union "
                "(paper §2, §5.2)")
        if semiring.product.name != "times":
            raise SemiringError(
                f"csrgemm cannot substitute ⊗ = {semiring.product.name!r}; "
                "only the arithmetic product is supported")

        out_nnz = int(np.count_nonzero(co_occurrence_counts(a, b)))
        stats = self._count(a, b, out_nnz)
        profile = CsrGemmProfile(
            output_density=out_nnz / max(1, a.n_rows * b.n_rows),
            workspace_bytes=stats.workspace_bytes)
        # The internal pipeline is several kernels, not one.
        return LaunchSchedule(
            (Launch(stats, grid_blocks=max(1, a.n_rows), block_threads=256,
                    smem_per_block=48 * 1024, regs_per_thread=48,
                    profile=profile),),
            unpriced=KernelStats(kernel_launches=self.N_INTERNAL_KERNELS - 1))

    # ------------------------------------------------------------------
    def _count(self, a: CSRMatrix, b: CSRMatrix, out_nnz: int) -> KernelStats:
        stats = KernelStats()
        m, n = a.n_rows, b.n_rows
        intersections = _total_intersections(a, b)

        # Explicit transpose of B: read both arrays coalesced, scatter-write
        # into the transposed layout.
        stats.gmem_transactions += coalesced_transactions(b.nnz * 2, itemsize=4)
        stats.gmem_transactions += uncoalesced_transactions(b.nnz)
        stats.uncoalesced_loads += b.nnz
        stats.alu_ops += b.nnz * 2.0

        # Gustavson-style multiply: gather B^T rows for each nonzero column
        # of A; partially coalesced reads, one FMA + one accumulator update
        # per intersecting element.
        stats.gmem_transactions += (intersections
                                    / self.READ_ELEMENTS_PER_TRANSACTION)
        stats.alu_ops += intersections * self.FLOPS_PER_INTERSECTION
        stats.smem_accesses += intersections

        # Sparse output materialization: two arrays of out_nnz (indices +
        # values) written twice (nnz-count pass then fill pass).
        stats.gmem_transactions += 2 * coalesced_transactions(
            out_nnz * 2, itemsize=4)

        # Dense conversion: zero-fill m*n then scatter out_nnz values.
        stats.gmem_transactions += coalesced_transactions(m * n, itemsize=4)
        stats.gmem_transactions += uncoalesced_transactions(out_nnz)
        stats.uncoalesced_loads += out_nnz

        # Transpose bookkeeping scales with the column count: building the
        # transposed indptr needs a k-length histogram + scan.
        stats.alu_ops += 2.0 * b.n_cols
        stats.gmem_transactions += coalesced_transactions(b.n_cols * 2,
                                                          itemsize=4)

        # Internal workspace: intermediate-product accumulators, but never
        # below cuSPARSE's near-constant floor (§4.3). The floor is paid in
        # memory traffic every call: allocation + initialization + the
        # multiply streaming through it (one write + one read pass).
        workspace = max(8.0 * intersections + 8.0 * (m + b.n_cols),
                        float(self.WORKSPACE_FLOOR_BYTES))
        stats.workspace_bytes = workspace
        stats.gmem_transactions += 2.0 * coalesced_transactions(
            int(workspace), itemsize=1)
        return stats
