"""Property tests of the top-k selection rule.

``select_topk`` must pick exactly what a stable argsort of each row picks
(NaN after ``+inf``, ``-0.0`` equal to ``0.0``, ties by index), and any
split of the columns merged through :class:`TopKAccumulator` must pick
the same. Small-integer values with NaN, ``±inf`` and ``-0.0`` make ties
at the k boundary the common case.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.neighbors.topk import TopKAccumulator, select_topk
from tests.conftest import (assert_same_bits, merge_column_slices,
                            stable_topk)

VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0,
                          np.inf, -np.inf, np.nan])


@st.composite
def blocks(draw):
    """A tie-heavy block and a k from 1 to ``n_cols + 2``."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 14))
    block = draw(arrays(np.float64, (n_rows, n_cols), elements=VALUES))
    return block, draw(st.integers(1, n_cols + 2))


@given(blocks(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_select_topk_is_the_stable_argsort_prefix(case, ascending):
    block, k = case
    assert_same_bits(select_topk(block, k, ascending),
                     stable_topk(block, k, ascending))


@given(blocks(), st.data())
@settings(max_examples=300, deadline=None)
def test_two_way_column_split_equals_one_shot(case, data):
    block, k = case
    cut = data.draw(st.integers(0, block.shape[1]))
    assert_same_bits(merge_column_slices(block, k, [0, cut]),
                     select_topk(block, k))


@given(blocks(), st.data())
@settings(max_examples=300, deadline=None)
def test_interleaved_shard_split_equals_one_shot(case, data):
    block, k = case
    n_cols = block.shape[1]
    shard_of = np.array(data.draw(st.lists(
        st.integers(0, 1), min_size=n_cols, max_size=n_cols)))
    acc = TopKAccumulator(block.shape[0], k)
    for shard in (0, 1):
        ids = np.flatnonzero(shard_of == shard)
        val, local = select_topk(block[:, ids], k)
        acc.update_pairs(val, ids[local])
    assert_same_bits(acc.finalize(), select_topk(block, k))
