"""Property-based tests on kernel-level data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bloom_filter import BlockBloomFilter
from repro.kernels.hash_table import BlockHashTable
from repro.kernels.strategy import plan_partitions
from repro.neighbors.topk import select_topk
from tests.conftest import merge_column_slices


@given(st.lists(st.integers(0, 10**6), unique=True, min_size=0, max_size=200),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_hash_table_total_recall(keys, capacity_scale):
    """Whatever was inserted is found, with its exact value."""
    keys = np.asarray(keys, dtype=np.int64)
    capacity = max(8, keys.size * (2 + capacity_scale))
    table = BlockHashTable(capacity)
    vals = keys.astype(np.float64) * 0.5 + 1.0
    table.build(keys, vals)
    got, found, _ = table.lookup(keys)
    assert found.all()
    np.testing.assert_allclose(got, vals)


@given(st.lists(st.integers(0, 10**6), unique=True, min_size=1, max_size=100),
       st.lists(st.integers(0, 10**6), unique=True, min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_hash_table_no_false_hits(inserted, queried):
    inserted = np.asarray(inserted, dtype=np.int64)
    queried = np.asarray(queried, dtype=np.int64)
    table = BlockHashTable(max(16, inserted.size * 4))
    table.build(inserted, np.ones(inserted.size))
    _, found, _ = table.lookup(queried)
    truly = np.isin(queried, inserted)
    np.testing.assert_array_equal(found, truly)


@given(st.lists(st.integers(0, 10**6), unique=True, min_size=0, max_size=150))
@settings(max_examples=60, deadline=None)
def test_bloom_no_false_negatives(keys):
    keys = np.asarray(keys, dtype=np.int64)
    bloom = BlockBloomFilter(4096)
    bloom.add(keys)
    hit, report = bloom.query(keys)
    assert hit.all() or keys.size == 0
    assert report.n_false_positive == 0


@given(st.lists(st.integers(0, 500), min_size=1, max_size=60),
       st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_partition_plan_conserves_and_bounds(degrees, max_entries):
    degrees = np.asarray(degrees, dtype=np.int64)
    plan = plan_partitions(degrees, max_entries)
    assert plan.block_sizes.sum() == degrees.sum()
    assert np.all(plan.block_sizes <= max_entries)
    # blocks of one row are contiguous and ordered
    assert np.all(np.diff(plan.block_rows) >= 0)
    for row, deg in enumerate(degrees):
        assert plan.block_sizes[plan.block_rows == row].sum() == deg


@given(st.integers(1, 12), st.integers(1, 30), st.integers(1, 15),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_topk_matches_full_sort(n_rows, n_cols, k, seed):
    rng = np.random.default_rng(seed)
    d = rng.random((n_rows, n_cols))
    val, idx = select_topk(d, k)
    kk = min(k, n_cols)
    want = np.sort(d, axis=1)[:, :kk]
    np.testing.assert_allclose(val, want)
    np.testing.assert_allclose(np.take_along_axis(d, idx, 1), val)


@given(st.integers(1, 8), st.integers(2, 40), st.integers(1, 10),
       st.integers(1, 13), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_topk_accumulator_batch_invariance(n_rows, n_cols, k, batch, seed):
    rng = np.random.default_rng(seed)
    d = rng.random((n_rows, n_cols))
    got_val, got_idx = merge_column_slices(d, k, range(0, n_cols, batch))
    want_val, want_idx = select_topk(d, k)
    np.testing.assert_allclose(got_val, want_val)
    np.testing.assert_array_equal(got_idx, want_idx)
