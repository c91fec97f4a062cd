"""Property-based tests on semiring math and the distance catalogue."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distances import available_distances
from repro.core.pairwise import pairwise_distances
from repro.core.reference import pairwise_reference
from repro.core.semiring import dot_product_semiring, namm_semiring
from repro.sparse.csr import CSRMatrix
from tests.conftest import dense_block
from tests.properties.test_distance_props import ATOL

POSITIVE_ONLY = {"hellinger", "kl_divergence", "jensen_shannon"}
GENERAL_METRICS = sorted(set(available_distances()) - POSITIVE_ONLY)

#: Expanded measures that end in a square root. Both sides compute
#: sqrt(||a||^2 + ||b||^2 - 2<a,b>), so one ulp of summation-order residue
#: on a row mass of 65 (1.4e-14) becomes a 1.2e-7 distance; these take the
#: root-amplified bound ``ATOL`` and every other metric keeps 1e-7.
ROOT_EXPANDED = {"euclidean", "hellinger"}

#: A Hellinger self-join whose d[2, 2] is 1.19e-7 on both engines and 0.0
#: in the dense oracle.
_ROOT_RESIDUE = np.array([[1.0] * 7, [1.0] * 7, [10, 48, 1, 1, 1, 1, 3]])


def _oracle_atol(metric):
    return ATOL if metric in ROOT_EXPANDED else 1e-7


@st.composite
def sparse_pair(draw, max_rows=8, max_cols=10, positive=False):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_cols))
    lo = 0.001 if positive else -50.0
    elements = st.floats(lo, 50.0, allow_nan=False)

    def one(rows):
        vals = draw(arrays(np.float64, (rows, k), elements=elements))
        mask = draw(arrays(np.bool_, (rows, k)))
        return vals * mask

    return one(m), one(n)


@given(sparse_pair(), st.sampled_from(GENERAL_METRICS))
@settings(max_examples=80, deadline=None)
def test_every_distance_matches_oracle(pair, metric):
    x, y = pair
    got = pairwise_distances(x, y, metric=metric, engine="host")
    want = pairwise_reference(x, y, metric)
    np.testing.assert_allclose(got, want, atol=_oracle_atol(metric))


@given(sparse_pair(positive=True), st.sampled_from(sorted(POSITIVE_ONLY)))
@example((_ROOT_RESIDUE, _ROOT_RESIDUE), "hellinger")
@settings(max_examples=50, deadline=None)
def test_positive_distances_match_oracle(pair, metric):
    x, y = pair
    got = pairwise_distances(x, y, metric=metric, engine="host")
    want = pairwise_reference(x, y, metric)
    np.testing.assert_allclose(got, want, atol=_oracle_atol(metric))


@given(sparse_pair(), st.sampled_from(["manhattan", "chebyshev", "hamming",
                                       "canberra"]))
@settings(max_examples=60, deadline=None)
def test_namm_symmetry(pair, metric):
    x, y = pair
    dxy = pairwise_distances(x, y, metric=metric, engine="host")
    dyx = pairwise_distances(y, x, metric=metric, engine="host")
    np.testing.assert_allclose(dxy, dyx.T, atol=1e-9)


@given(sparse_pair())
@settings(max_examples=60, deadline=None)
def test_union_decomposition_identity(pair):
    """⊕ over the union == Σ_a ⊗(a,0) + Σ_b ⊗(0,b) + corrected intersection
    (the paper's Eq. 3 executed two ways must agree)."""
    x, y = pair
    a, b = CSRMatrix.from_dense(x), CSRMatrix.from_dense(y)
    sr = namm_semiring(lambda p, q: np.abs(p - q), name="manhattan")
    via_decomposition = dense_block(a, b, sr)
    dense = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=-1)
    np.testing.assert_allclose(via_decomposition, dense, atol=1e-7)


@given(sparse_pair())
@settings(max_examples=60, deadline=None)
def test_intersection_block_is_matmul(pair):
    x, y = pair
    a, b = CSRMatrix.from_dense(x), CSRMatrix.from_dense(y)
    got = dense_block(a, b, dot_product_semiring())
    np.testing.assert_allclose(got, x @ y.T, rtol=1e-9, atol=1e-7)


@given(sparse_pair(max_rows=6, max_cols=8),
       st.sampled_from(["cosine", "manhattan", "chebyshev", "hamming"]))
@settings(max_examples=40, deadline=None)
def test_simulated_engines_agree_with_host(pair, metric):
    """Schedule must never change numbers."""
    x, y = pair
    host = pairwise_distances(x, y, metric=metric, engine="host")
    for engine in ("hybrid_coo", "naive_csr"):
        sim = pairwise_distances(x, y, metric=metric, engine=engine)
        np.testing.assert_allclose(sim, host, atol=1e-9)
