"""From-scratch sparse-matrix substrate (CSR + COO).

The paper's primitive operates directly on CSR inputs and internally views
the second operand through a COO row index (Section 3.3). This subpackage is
that substrate: containers, validated construction, conversions, and the
GraphBLAS-style helper reductions (row norms) the expansion functions need.
"""

from repro.sparse.bsr import BSRMatrix
from repro.sparse.builder import CSRRowBuilder
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import as_csr, from_scipy, to_scipy_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    even_row_bands,
    iter_row_batches,
    row_norms,
    row_sums,
    vstack,
)

__all__ = [
    "CSRMatrix",
    "CSRRowBuilder",
    "COOMatrix",
    "BSRMatrix",
    "as_csr",
    "from_scipy",
    "to_scipy_csr",
    "row_norms",
    "row_sums",
    "vstack",
    "iter_row_batches",
    "even_row_bands",
]
