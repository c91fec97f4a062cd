"""The axioms a measure's flags give up are broken on pairwise_distances.

Each witness is a few rows on which the measure breaks the axiom its
catalogue entry declares it does not keep, so ``symmetric=False``,
``non_negative=False`` and ``is_metric=False`` are load-bearing, not
conservative.
"""

import numpy as np
import pytest

from repro.core.distances import make_distance
from repro.core.pairwise import pairwise_distances
from repro.sparse.csr import CSRMatrix


def _pairwise(rows, metric):
    return pairwise_distances(CSRMatrix.from_dense(np.array(rows)),
                              metric=metric)


class TestMetricFlagsHoldUp:
    def test_kl_fails_symmetry(self):
        assert not make_distance("kl_divergence").symmetric
        kl = _pairwise([[0.2, 0.8], [0.6, 0.4]], "kl_divergence")
        assert kl[0, 1] != pytest.approx(kl[1, 0])

    def test_sqeuclidean_fails_triangle(self):
        assert not make_distance("sqeuclidean").is_metric
        # three points on a line: d(x0, x2) = 4 > d(x0, x1) + d(x1, x2) = 2
        sq = _pairwise([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], "sqeuclidean")
        assert sq[0, 2] > sq[0, 1] + sq[1, 2]

    def test_cosine_fails_implication(self):
        assert not make_distance("cosine").is_metric
        # two parallel but different vectors have cosine distance 0
        cos = _pairwise([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 3.0]],
                        "cosine")
        assert cos[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert cos.min() >= -1e-12
        np.testing.assert_allclose(cos, cos.T, atol=1e-12)

    def test_dot_fails_positivity(self):
        assert not make_distance("dot").non_negative
        d = _pairwise([[1.0, -1.0], [1.0, 1.0], [-2.0, 1.0]], "dot")
        assert d.min() < 0  # <x0, x2> = -3
