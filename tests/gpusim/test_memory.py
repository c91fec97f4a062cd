"""Coalescing and bank-conflict model tests."""

import numpy as np
import pytest

from repro.gpusim.memory import (
    bank_conflicts_for_offsets,
    coalesced_transactions,
    uncoalesced_transactions,
)


def warp_bank_conflicts(addresses: np.ndarray, n_banks: int = 32,
                        itemsize: int = 4) -> int:
    """Loop oracle: serialized extra cycles for one warp's shared-memory
    access.

    ``addresses`` are the byte (or element, with ``itemsize=1``) offsets the
    lanes of a single warp touch simultaneously. Lanes hitting the *same*
    address broadcast for free; lanes hitting *different* addresses in the
    same bank serialize, adding ``(distinct addresses in bank) - 1`` cycles.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size == 0:
        return 0
    words = addresses // itemsize
    banks = words % n_banks
    conflicts = 0
    for bank in np.unique(banks):
        distinct = np.unique(words[banks == bank]).size
        conflicts += max(0, distinct - 1)
    return int(conflicts)


class TestCoalescing:
    def test_warp_of_f32_is_one_transaction(self):
        # 32 contiguous 4-byte loads = 128 bytes = exactly one transaction.
        assert coalesced_transactions(32, itemsize=4) == 1.0

    def test_scales_linearly(self):
        assert coalesced_transactions(3200, itemsize=4) == 100.0

    def test_rounds_up(self):
        assert coalesced_transactions(33, itemsize=4) == 2.0

    def test_zero_and_negative(self):
        assert coalesced_transactions(0) == 0.0
        assert uncoalesced_transactions(-5) == 0.0

    def test_uncoalesced_is_one_per_element(self):
        assert uncoalesced_transactions(100) == 100.0

    def test_uncoalesced_is_32x_worse_for_f32(self):
        n = 3200
        assert (uncoalesced_transactions(n)
                == 32 * coalesced_transactions(n, itemsize=4))


class TestBankConflicts:
    def test_conflict_free_sequential(self):
        # Lane i -> word i: each lane hits its own bank.
        addrs = np.arange(32) * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 0

    def test_broadcast_is_free(self):
        # All lanes reading the same address broadcast without conflict.
        addrs = np.zeros(32, dtype=np.int64)
        assert warp_bank_conflicts(addrs, itemsize=4) == 0

    def test_stride_two_serializes(self):
        # Stride-2 words: 16 banks each hit by 2 distinct words -> 16 extra.
        addrs = np.arange(32) * 2 * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 16

    def test_worst_case_same_bank(self):
        # All 32 lanes hit 32 distinct words in one bank: 31 extra cycles.
        addrs = np.arange(32) * 32 * 4
        assert warp_bank_conflicts(addrs, itemsize=4) == 31

    def test_empty(self):
        assert warp_bank_conflicts(np.array([], dtype=np.int64)) == 0


class TestStreamConflicts:
    def test_matches_per_warp_sum(self, rng):
        offsets = rng.integers(0, 4096, size=32 * 7) * 4
        total = bank_conflicts_for_offsets(offsets, itemsize=4)
        per_warp = sum(
            warp_bank_conflicts(offsets[i:i + 32], itemsize=4)
            for i in range(0, offsets.size, 32))
        assert total == per_warp

    def test_partial_final_warp(self, rng):
        offsets = rng.integers(0, 512, size=40) * 4
        total = bank_conflicts_for_offsets(offsets, itemsize=4)
        per_warp = (warp_bank_conflicts(offsets[:32], itemsize=4)
                    + warp_bank_conflicts(offsets[32:], itemsize=4))
        assert total == per_warp

    def test_empty_stream(self):
        assert bank_conflicts_for_offsets(np.array([], dtype=np.int64)) == 0

    @pytest.mark.parametrize("warp_size", [1, 4, 32])
    @pytest.mark.parametrize("n_banks", [1, 8, 32])
    @pytest.mark.parametrize("itemsize", [4, 8])
    def test_random_streams_match_loop_oracle(self, rng, warp_size,
                                              n_banks, itemsize):
        # Small and huge offset ranges, with repeats drawn from a short
        # pool so broadcasts and same-bank words are common.
        for high in (64, 4096, 2 ** 40):
            for _ in range(8):
                pool = rng.integers(0, high, size=rng.integers(1, 40))
                offsets = rng.choice(pool, size=rng.integers(1, 200))
                want = sum(
                    warp_bank_conflicts(offsets[i:i + warp_size], n_banks,
                                        itemsize)
                    for i in range(0, offsets.size, warp_size))
                assert bank_conflicts_for_offsets(
                    offsets, warp_size, n_banks, itemsize) == want
