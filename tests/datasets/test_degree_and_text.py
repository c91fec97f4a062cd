"""Degree-CDF helpers, vectorizers and corpus generators."""

import numpy as np
import pytest

from repro.datasets.corpus import generate_company_names, generate_documents
from repro.datasets.degree import (
    balanced_split,
    degree_balanced_shards,
    degree_cdf,
    degree_percentile,
    fraction_below,
)
from repro.datasets.featurize import CharNgramVectorizer, TfidfVectorizer
from repro.sparse.csr import CSRMatrix
from tests.conftest import random_csr


class TestDegreeCdf:
    def test_monotone_nondecreasing(self, rng):
        xs, ys = degree_cdf(random_csr(rng, 50, 30, 0.3))
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ys) >= 0)
        assert ys[-1] <= 1.0

    def test_empty_matrix(self):
        xs, ys = degree_cdf(CSRMatrix.empty((0, 5)))
        assert xs.size == ys.size == 0

    def test_known_distribution(self):
        m = CSRMatrix.from_dense(np.tril(np.ones((10, 10))))
        # degrees 1..10 uniformly
        assert degree_percentile(m, 0.0) == 1.0
        assert fraction_below(m, 6) == pytest.approx(0.5)


class TestBalancedSplit:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_parts_partition_all_ids(self, rng, axis):
        m = random_csr(rng, 40, 24, 0.3)
        n_items = m.n_rows if axis == 0 else m.n_cols
        parts = balanced_split(m, 5, axis=axis)
        assert len(parts) == 5
        stacked = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(stacked, np.arange(n_items))
        # each part ascending (the tie-break invariant merges rely on)
        for ids in parts:
            assert np.all(np.diff(ids) > 0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_balances_degree_load(self, rng, axis):
        m = random_csr(rng, 48, 32, 0.35)
        deg = (m.row_degrees() if axis == 0
               else np.bincount(np.asarray(m.indices, dtype=np.int64),
                                minlength=m.n_cols))
        parts = balanced_split(m, 4, axis=axis)
        loads = [int(deg[ids].sum()) for ids in parts]
        # LPT guarantee: max load within one heaviest item of the mean
        assert max(loads) - min(loads) <= int(deg.max())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_deterministic(self, axis):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        a = random_csr(rng_a, 30, 18, 0.3)
        b = random_csr(rng_b, 30, 18, 0.3)
        for pa, pb in zip(balanced_split(a, 3, axis=axis),
                          balanced_split(b, 3, axis=axis)):
            np.testing.assert_array_equal(pa, pb)

    def test_column_axis_uses_column_degrees(self):
        # one hub column (all rows) + sparse others: the hub must sit alone
        dense = np.zeros((8, 4))
        dense[:, 0] = 1.0
        dense[0, 1] = dense[1, 2] = dense[2, 3] = 1.0
        m = CSRMatrix.from_dense(dense)
        parts = balanced_split(m, 2, axis=1)
        hub_part = next(p for p in parts if 0 in p)
        assert hub_part.size == 1  # the greedy isolates the hub column

    def test_validation(self, rng):
        m = random_csr(rng, 10, 6, 0.4)
        with pytest.raises(ValueError):
            balanced_split(m, 3, axis=2)
        with pytest.raises(ValueError):
            balanced_split(m, 11, axis=0)
        with pytest.raises(ValueError):
            balanced_split(m, 7, axis=1)
        with pytest.raises(ValueError):
            balanced_split(m, 0)

    def test_shards_alias_matches_axis0(self, rng):
        m = random_csr(rng, 25, 12, 0.3)
        for pa, pb in zip(degree_balanced_shards(m, 4),
                          balanced_split(m, 4, axis=0)):
            np.testing.assert_array_equal(pa, pb)


class TestTfidf:
    DOCS = ["the cat sat", "the dog sat", "cats and dogs", "the the the"]

    def test_shapes(self):
        x = TfidfVectorizer().fit_transform(self.DOCS)
        assert x.n_rows == 4
        assert x.n_cols == len(set("the cat sat dog cats and dogs".split()))

    def test_rows_l2_normalized(self):
        x = TfidfVectorizer().fit_transform(self.DOCS)
        from repro.sparse.ops import row_norms
        norms = row_norms(x, "l2")
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-12)

    def test_min_df_filters(self):
        x = TfidfVectorizer(min_df=2).fit_transform(self.DOCS)
        # only "the" and "sat" appear in >= 2 docs
        assert x.n_cols == 2

    def test_oov_terms_dropped(self):
        v = TfidfVectorizer().fit(["alpha beta"])
        x = v.transform(["alpha gamma"])
        assert x.nnz == 1

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["x"])

    def test_similar_docs_closer(self):
        from repro.core.pairwise import pairwise_distances
        x = TfidfVectorizer().fit_transform(self.DOCS)
        d = pairwise_distances(x, metric="cosine", engine="host")
        assert d[0, 1] < d[0, 2]  # "the cat sat" nearer "the dog sat"


class TestCharNgrams:
    def test_ngram_extraction(self):
        v = CharNgramVectorizer(n=3, use_idf=False)
        grams = v._analyze("ab cd")
        assert "_ab" in grams and "b_c" in grams and "cd_" in grams

    def test_short_string(self):
        v = CharNgramVectorizer(n=5)
        assert v._analyze("a") == ["_a_"]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            CharNgramVectorizer(n=0)

    def test_variants_are_near(self):
        from repro.core.pairwise import pairwise_distances
        names = ["acme energy inc", "acme energy llc", "zebra pharma corp"]
        x = CharNgramVectorizer(n=3).fit_transform(names)
        d = pairwise_distances(x, metric="cosine", engine="host")
        assert d[0, 1] < d[0, 2]


class TestCorpus:
    def test_documents_deterministic(self):
        t1, l1 = generate_documents(10, seed=3)
        t2, l2 = generate_documents(10, seed=3)
        assert t1 == t2 and l1 == l2

    def test_document_topics_valid(self):
        texts, labels = generate_documents(20)
        assert len(texts) == len(labels) == 20
        assert all(isinstance(t, str) and t for t in texts)

    def test_same_topic_docs_are_nearer(self):
        from repro.core.pairwise import pairwise_distances
        texts, labels = generate_documents(60, seed=5)
        x = TfidfVectorizer().fit_transform(texts)
        d = pairwise_distances(x, metric="cosine", engine="host")
        labels = np.asarray(labels)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(labels), dtype=bool)
        assert d[same & off_diag].mean() < d[~same].mean()

    def test_company_variants_share_ids(self):
        names, ids = generate_company_names(50, seed=2,
                                            variant_fraction=0.5)
        assert len(names) == 50
        assert np.unique(ids).size < 50  # some variants exist

    def test_no_variants_when_fraction_zero(self):
        names, ids = generate_company_names(30, variant_fraction=0.0)
        assert np.unique(ids).size == 30
