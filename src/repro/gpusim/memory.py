"""Global- and shared-memory access models (paper §3.1).

Two facts about GPU memory drive every design decision in the paper:

1. **Coalescing** — a warp's 32 contiguous 4-byte global loads collapse into
   a single 128-byte transaction when issued in the same instruction;
   scattered loads each pay their own transaction.
2. **Bank conflicts** — shared memory is striped across 32 banks; two lanes
   of a warp touching different addresses in the same bank serialize.

These helpers turn element counts / address arrays into transaction and
conflict counts for :class:`repro.gpusim.stats.KernelStats`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRANSACTION_BYTES",
    "coalesced_transactions",
    "uncoalesced_transactions",
    "bank_conflicts_for_offsets",
]

#: Size of one global-memory transaction (a 128-byte cache sector).
TRANSACTION_BYTES = 128


def coalesced_transactions(n_elements: int, itemsize: int = 4,
                           warp_size: int = 32) -> float:
    """Transactions for ``n_elements`` contiguous lane accesses.

    Contiguous warp accesses of ``warp_size * itemsize`` bytes fold into
    ``ceil(bytes / TRANSACTION_BYTES)`` transactions.
    """
    if n_elements <= 0:
        return 0.0
    total_bytes = n_elements * itemsize
    return float(-(-total_bytes // TRANSACTION_BYTES))


def uncoalesced_transactions(n_elements: int) -> float:
    """Scattered accesses: every element pays a full transaction."""
    return float(max(0, n_elements))


def bank_conflicts_for_offsets(offsets: np.ndarray, warp_size: int = 32,
                               n_banks: int = 32, itemsize: int = 4) -> int:
    """Total bank-conflict cycles when a flat stream of shared-memory word
    offsets is issued ``warp_size`` lanes at a time.

    The stream is chunked into consecutive warps. Within a warp, lanes
    hitting the *same* word broadcast for free; lanes hitting *different*
    words in the same bank serialize, adding one cycle per distinct word
    in the bank beyond the first. A word fixes its bank, so a warp's extra
    cycles are its distinct words minus its distinct banks; both counts
    come from one sort within each warp, which no int64 offset overflows.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size == 0:
        return 0
    words = offsets // itemsize
    # Pad the final warp with its last word: a repeat adds no distinct
    # word or bank.
    pad = np.repeat(words[-1], -words.size % warp_size)
    warps = np.concatenate([words, pad]).reshape(-1, warp_size)
    return _distinct_per_row(warps) - _distinct_per_row(warps % n_banks)


def _distinct_per_row(rows: np.ndarray) -> int:
    """Sum over rows of the number of distinct values in the row."""
    rows = np.sort(rows, axis=1)
    return rows.shape[0] + int(np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
