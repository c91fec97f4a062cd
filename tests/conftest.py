"""Shared fixtures for the test suite.

The data generators live in :mod:`repro.testing` (one seeded home shared
with ``benchmarks/`` and the golden-fixture regenerator); this module
re-exports them because many tests import the helpers directly:

    from tests.conftest import random_csr, random_dense

It also holds two helpers that drive the library the way the plan
executor does, :func:`dense_block` and :func:`merge_column_slices`, and
the top-k oracle :func:`stable_topk` with its bitwise check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.functional import semiring_block
from repro.neighbors.topk import TopKAccumulator, select_topk
from repro.testing import (  # noqa: F401  (re-exported for test modules)
    DEFAULT_SEED,
    random_csr,
    random_dense,
    seeded_rng,
    skewed_csr,
    skewed_dense,
)


def dense_block(a, b, semiring) -> np.ndarray:
    """The ``(a.n_rows, b.n_rows)`` block that :func:`semiring_block`
    hands its sink, gathered band by band out of the reused workspace."""
    out = np.empty((a.n_rows, b.n_rows))

    def sink(r0, r1, rows):
        out[r0:r1] = rows

    semiring_block(a, b, semiring, sink)
    return out


def merge_column_slices(d, k, starts):
    """The sorted k best of each row of ``d``, selected per column slice
    ``d[:, start:next start]`` with ids offset by the slice start and then
    merged, as a k-NN tile sink and its consumer do per column tile."""
    acc = TopKAccumulator(d.shape[0], k)
    for start, stop in zip(starts, list(starts[1:]) + [d.shape[1]]):
        val, idx = select_topk(d[:, start:stop], k)
        acc.update_pairs(val, idx + start)
    return acc.finalize()


def stable_topk(block, k, ascending=True):
    """The definition of ``select_topk``: the first k of a stable argsort
    of each row."""
    keyed = block if ascending else -block
    idx = np.argsort(keyed, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(block, idx, axis=1), idx


def assert_same_bits(got, want):
    """Equal ``(values, indices)`` pairs, values compared bit for bit."""
    got_val, got_idx = got
    want_val, want_idx = want
    np.testing.assert_array_equal(got_idx, want_idx)
    np.testing.assert_array_equal(got_val.view(np.int64),
                                  want_val.view(np.int64))


@pytest.fixture
def rng() -> np.random.Generator:
    return seeded_rng(DEFAULT_SEED)


@pytest.fixture
def small_pair(rng):
    """A small (A, B) pair of sparse matrices with mixed-sign values."""
    return (random_csr(rng, 17, 23, 0.35), random_csr(rng, 13, 23, 0.25))


@pytest.fixture
def positive_pair(rng):
    """Positive-valued pair (valid input for KL / JS / Hellinger)."""
    return (random_csr(rng, 14, 19, 0.4, positive=True),
            random_csr(rng, 11, 19, 0.3, positive=True))
