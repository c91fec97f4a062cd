"""Shared-memory bloom filter + binary-search lookup (paper §3.3.2).

The alternative to the hash table: keep only a bit-array bloom filter in
shared memory and, on a positive hit, binary-search the staged row's
nonzeros in *global* memory. This halves the shared-memory footprint
(bits instead of 8-byte key/value pairs) at the price of extra global
traffic on hits and false positives. The paper found it "marginally better
... on the Jensen-Shannon distance" — a compute-bound kernel whose global
latencies hide behind arithmetic — and our cost model reproduces exactly
that overlap via its ``max(compute, memory)`` rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import KernelLaunchError
from repro.kernels.hash_table import murmur_hash_32

__all__ = ["BlockBloomFilter"]


def _second_hash(keys: np.ndarray) -> np.ndarray:
    """An independent second hash derived by salting the key."""
    salted = np.asarray(keys, dtype=np.uint64) ^ np.uint64(0x9E3779B97F4A7C15)
    return murmur_hash_32(salted)


@dataclass
class LookupReport:
    """Counters from one batch of bloom queries."""

    n_queries: int
    n_positive: int
    n_false_positive: int

    @property
    def false_positive_rate(self) -> float:
        return self.n_false_positive / self.n_queries if self.n_queries else 0.0


class BlockBloomFilter:
    """A two-hash bloom filter over a row's nonzero column set."""

    N_HASHES = 2

    def __init__(self, n_bits: int):
        if n_bits <= 0:
            raise KernelLaunchError("bloom filter must have positive bits")
        self.n_bits = int(n_bits)
        self.bits = np.zeros(self.n_bits, dtype=bool)
        self._members: set = set()

    def smem_bytes(self) -> int:
        return -(-self.n_bits // 8)

    # ------------------------------------------------------------------
    def add(self, cols: np.ndarray) -> None:
        cols = np.asarray(cols, dtype=np.int64)
        self.bits[murmur_hash_32(cols).astype(np.int64) % self.n_bits] = True
        self.bits[_second_hash(cols).astype(np.int64) % self.n_bits] = True
        self._members.update(int(c) for c in cols)

    def query(self, cols: np.ndarray) -> Tuple[np.ndarray, LookupReport]:
        """Membership test; reports true/false-positive counts.

        The false-positive count is what prices the wasted binary searches
        in the bloom execution strategy.
        """
        cols = np.asarray(cols, dtype=np.int64)
        hit = (self.bits[murmur_hash_32(cols).astype(np.int64) % self.n_bits]
               & self.bits[_second_hash(cols).astype(np.int64) % self.n_bits])
        if self._members:
            member_arr = np.fromiter(self._members, dtype=np.int64,
                                     count=len(self._members))
            truly_in = np.isin(cols, member_arr)
        else:
            truly_in = np.zeros(cols.size, dtype=bool)
        false_pos = int(np.count_nonzero(hit & ~truly_in))
        report = LookupReport(n_queries=int(cols.size),
                              n_positive=int(np.count_nonzero(hit)),
                              n_false_positive=false_pos)
        return hit, report

    # ------------------------------------------------------------------
    @staticmethod
    def expected_fpr(n_items: int, n_bits: int) -> float:
        """Textbook bloom false-positive rate for :data:`N_HASHES` hashes
        (used by the cost model when it prices un-simulated blocks)."""
        if n_bits <= 0 or n_items <= 0:
            return 0.0
        k = BlockBloomFilter.N_HASHES
        return (1.0 - math.exp(-k * n_items / n_bits)) ** k

    @staticmethod
    def binary_search_steps(degree: int) -> float:
        """Global-memory probes one binary search over a row costs."""
        return math.ceil(math.log2(degree + 1)) if degree > 0 else 0.0

    def clear(self) -> None:
        self.bits.fill(False)
        self._members.clear()
