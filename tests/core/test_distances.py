"""Distance catalogue tests: every Table-1 measure against the dense oracle,
plus metric-space properties and edge cases."""

import warnings

import numpy as np
import pytest

from repro.core.distances import (
    DOT_PRODUCT_DISTANCES,
    NAMM_DISTANCES,
    available_distances,
    canonical_name,
    make_distance,
)
from repro.core.pairwise import pairwise_distances
from repro.core.reference import pairwise_reference
from repro.errors import UnknownDistanceError
from tests.conftest import random_dense

ALL = available_distances()
#: metrics whose formulas need nonnegative input
POSITIVE_ONLY = {"hellinger", "kl_divergence", "jensen_shannon"}


def _inputs(rng, metric, m=15, n=11, k=20, density=0.35):
    positive = metric in POSITIVE_ONLY
    x = random_dense(rng, m, k, density, positive=positive)
    y = random_dense(rng, n, k, density, positive=positive)
    return x, y


class TestCatalogue:
    def test_all_sixteen_present(self):
        assert len(ALL) == 16
        for name in ("cosine", "euclidean", "manhattan", "chebyshev",
                     "canberra", "hamming", "jensen_shannon", "kl_divergence",
                     "minkowski", "jaccard", "dice", "russellrao", "dot",
                     "hellinger", "correlation", "sqeuclidean"):
            assert name in ALL

    def test_table3_split_covers_14_benchmarked(self):
        assert len(DOT_PRODUCT_DISTANCES) == 7
        assert len(NAMM_DISTANCES) == 7
        assert not set(DOT_PRODUCT_DISTANCES) & set(NAMM_DISTANCES)

    @pytest.mark.parametrize("alias,canonical", [
        ("l1", "manhattan"), ("cityblock", "manhattan"), ("l2", "euclidean"),
        ("linf", "chebyshev"), ("KL", "kl_divergence"),
        ("jensen-shannon", "jensen_shannon"), ("russell-rao", "russellrao"),
        ("Cosine", "cosine"),
    ])
    def test_aliases(self, alias, canonical):
        assert canonical_name(alias) == canonical

    def test_unknown_distance(self):
        with pytest.raises(UnknownDistanceError):
            make_distance("wasserstein")

    def test_minkowski_requires_p_geq_1(self):
        with pytest.raises(ValueError):
            make_distance("minkowski", p=0.5)

    def test_kind_flags(self):
        assert make_distance("cosine").n_passes == 1
        assert make_distance("manhattan").n_passes == 2
        assert not make_distance("kl_divergence").symmetric
        # KL runs on the annihilating (single-pass) semiring despite being
        # grouped with the non-trivial metrics in Table 3.
        assert make_distance("kl_divergence").n_passes == 1


class TestAgainstOracle:
    @pytest.mark.parametrize("metric", ALL)
    def test_host_engine_matches_reference(self, rng, metric):
        x, y = _inputs(rng, metric)
        kw = {"p": 3.0} if metric == "minkowski" else {}
        got = pairwise_distances(x, y, metric=metric, engine="host", **kw)
        want = pairwise_reference(x, y, metric, **kw)
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_minkowski_p_sweep(self, rng, p):
        x, y = _inputs(rng, "minkowski")
        got = pairwise_distances(x, y, metric="minkowski", engine="host", p=p)
        want = pairwise_reference(x, y, "minkowski", p=p)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_minkowski_p1_equals_manhattan(self, rng):
        x, y = _inputs(rng, "minkowski")
        np.testing.assert_allclose(
            pairwise_distances(x, y, metric="minkowski", engine="host", p=1.0),
            pairwise_distances(x, y, metric="manhattan", engine="host"),
            atol=1e-9)

    def test_minkowski_p2_equals_euclidean(self, rng):
        x, y = _inputs(rng, "minkowski")
        np.testing.assert_allclose(
            pairwise_distances(x, y, metric="minkowski", engine="host", p=2.0),
            pairwise_distances(x, y, metric="euclidean", engine="host"),
            atol=1e-9)


class TestMetricProperties:
    @pytest.mark.parametrize("metric", [m for m in ALL
                                        if make_distance(m).is_metric])
    def test_self_distance_zero(self, rng, metric):
        x, _ = _inputs(rng, metric)
        d = pairwise_distances(x, x, metric=metric, engine="host")
        # sqrt-family metrics amplify fp cancellation residue: sqrt(1e-12)
        # is 1e-6, so the tolerance here is looser than elsewhere.
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-5)

    @pytest.mark.parametrize("metric", [m for m in ALL
                                        if make_distance(m).symmetric])
    def test_symmetry(self, rng, metric):
        x, y = _inputs(rng, metric)
        dxy = pairwise_distances(x, y, metric=metric, engine="host")
        dyx = pairwise_distances(y, x, metric=metric, engine="host")
        np.testing.assert_allclose(dxy, dyx.T, atol=1e-9)

    @pytest.mark.parametrize("metric",
                             ["manhattan", "euclidean", "chebyshev",
                              "canberra", "hamming", "jaccard"])
    def test_triangle_inequality(self, rng, metric):
        x, _ = _inputs(rng, metric, m=10)
        d = pairwise_distances(x, x, metric=metric, engine="host")
        lhs = d[:, :, None]
        rhs = d[:, None, :] + d[None, :, :]
        assert np.all(lhs <= rhs + 1e-9)

    # dot is a similarity; KL's intersection-only sum is legitimately
    # negative when x < y on shared columns of non-normalized inputs.
    @pytest.mark.parametrize("metric",
                             [m for m in ALL
                              if m not in ("dot", "kl_divergence")])
    def test_nonnegative(self, rng, metric):
        x, y = _inputs(rng, metric)
        kw = {"p": 3.0} if metric == "minkowski" else {}
        d = pairwise_distances(x, y, metric=metric, engine="host", **kw)
        assert np.all(d >= -1e-12)


class TestEdgeCases:
    def test_cosine_zero_vector_pairs(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = pairwise_distances(x, x, metric="cosine", engine="host")
        assert d[0, 0] == pytest.approx(0.0)  # both empty -> identical
        assert d[0, 1] == pytest.approx(1.0)  # empty vs non-empty -> max
        assert d[1, 1] == pytest.approx(0.0)

    def test_correlation_constant_rows(self):
        # Zero-variance rows: every degenerate pair maps to 0 (documented
        # convention in _expand_correlation — d(x, x) = 0 must hold and the
        # expansion terms cannot distinguish the degenerate sub-cases).
        x = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        d = pairwise_distances(x, x, metric="correlation", engine="host")
        assert d[0, 0] == pytest.approx(0.0)
        assert d[0, 1] == pytest.approx(0.0)
        assert d[1, 1] == pytest.approx(0.0)

    def test_jaccard_both_empty_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        d = pairwise_distances(x, x, metric="jaccard", engine="host")
        assert d[0, 0] == pytest.approx(0.0)
        assert d[0, 1] == pytest.approx(1.0)

    def test_hamming_counts_union_mismatches(self):
        x = np.array([[1.0, 0.0, 2.0, 0.0]])
        y = np.array([[0.0, 0.0, 2.0, 3.0]])
        d = pairwise_distances(x, y, metric="hamming", engine="host")
        assert d[0, 0] == pytest.approx(2.0 / 4.0)

    def test_kl_intersection_only_semantics(self):
        # Columns where either side is zero contribute nothing (paper rule).
        x = np.array([[0.5, 0.5, 0.0]])
        y = np.array([[0.25, 0.0, 0.75]])
        d = pairwise_distances(x, y, metric="kl_divergence", engine="host")
        assert d[0, 0] == pytest.approx(0.5 * np.log(2.0))

    def test_russellrao_empty_dimensionality(self):
        x = np.zeros((2, 0))
        d = pairwise_distances(x, x, metric="russellrao", engine="host")
        np.testing.assert_allclose(d, 0.0)

    def test_chebyshev_zero_dimensional(self):
        x = np.zeros((2, 0))
        d = pairwise_distances(x, x, metric="chebyshev", engine="host")
        np.testing.assert_allclose(d, 0.0)

    def test_dice_is_binarized(self, rng):
        # Values must not matter for set-based measures.
        x, y = _inputs(rng, "dice")
        d1 = pairwise_distances(x, y, metric="dice", engine="host")
        d2 = pairwise_distances((x != 0) * 7.0, (y != 0) * 3.0,
                                metric="dice", engine="host")
        np.testing.assert_allclose(d1, d2, atol=1e-12)


def _expand_cosine_five_temporaries(dot, na, nb, k):
    """The cosine epilogue as first written, with five m x n temporaries;
    the oracle for the one-buffer version."""
    eps = 1e-300
    col = np.asarray(na["l2"], dtype=np.float64)[:, None]
    row = np.asarray(nb["l2"], dtype=np.float64)[None, :]
    denom = col * row
    sim = np.zeros_like(dot)
    np.divide(dot, denom, out=sim, where=denom > eps)
    out = 1.0 - sim
    out[(col <= eps) & (row <= eps)] = 0.0
    np.clip(out, 0.0, 2.0, out=out)
    return out


def _expand_dice_masked(dot, na, nb, k):
    """The Dice epilogue with a masked divide; the oracle for the shared
    in-place rule."""
    eps = 1e-300
    col = np.asarray(na["l0"], dtype=np.float64)[:, None]
    row = np.asarray(nb["l0"], dtype=np.float64)[None, :]
    denom = col + row
    out = np.zeros_like(dot)
    np.divide(2.0 * dot, denom, out=out, where=denom > eps)
    out = 1.0 - out
    out[(col <= eps) & (row <= eps)] = 0.0
    return out


def _expand_jaccard_masked(dot, na, nb, k):
    """The Jaccard epilogue with a masked divide; the oracle for the shared
    in-place rule."""
    eps = 1e-300
    col = np.asarray(na["l0"], dtype=np.float64)[:, None]
    row = np.asarray(nb["l0"], dtype=np.float64)[None, :]
    union = col + row - dot
    out = np.zeros_like(dot)
    np.divide(dot, union, out=out, where=union > eps)
    out = 1.0 - out
    out[(col <= eps) & (row <= eps)] = 0.0
    return out


class TestCosineEpilogue:
    """The in-place cosine, Dice and Jaccard expansions equal their
    masked-divide forms bit for bit, NaN in the same cells, with the same
    warnings, on degenerate norms and dots."""

    SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-301,
                         5e-324, 1e300])

    @staticmethod
    def _expand(fn, dot, norms):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(dot.copy(), *norms, 5)
        return out, sorted(str(w.message) for w in caught)

    def _case(self, seed, norm):
        rng = np.random.default_rng([7, seed])
        m, n = (int(v) for v in rng.integers(0, 9, 2))
        norms = []
        for size in (m, n):
            v = rng.random(size) * 3.0
            special = rng.random(size) < 0.4
            v[special] = rng.choice(self.SPECIALS, int(special.sum()))
            norms.append({norm: v})
        dot = rng.normal(size=(m, n)) * 2.0
        special = rng.random((m, n)) < 0.2
        dot[special] = rng.choice(self.SPECIALS, int(special.sum()))
        return dot, norms

    def _assert_same(self, metric, oracle, dot, norms):
        want, want_warnings = self._expand(oracle, dot, norms)
        got, got_warnings = self._expand(
            make_distance(metric).apply_expansion, dot, norms)
        assert got_warnings == want_warnings
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.int64),
                                      want[~nan].view(np.int64))

    @pytest.mark.parametrize("seed", range(40))
    def test_bitwise_equal_to_five_temporaries(self, seed):
        self._assert_same("cosine", _expand_cosine_five_temporaries,
                          *self._case(seed, "l2"))

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("metric, oracle", [
        ("dice", _expand_dice_masked), ("jaccard", _expand_jaccard_masked)])
    def test_dice_jaccard_bitwise_equal_to_masked_divide(self, metric,
                                                         oracle, seed):
        self._assert_same(metric, oracle, *self._case(seed, "l0"))

    def test_nan_norm_gives_distance_one(self):
        d = make_distance("cosine").apply_expansion(
            np.array([[0.5, 0.5]]), {"l2": np.array([np.nan])},
            {"l2": np.array([1.0, 0.0])}, 2)
        np.testing.assert_array_equal(d, [[1.0, 1.0]])
