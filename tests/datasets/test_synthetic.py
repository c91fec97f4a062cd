"""Synthetic dataset generator tests: structural fidelity to Table 2."""

import numpy as np
import pytest

from repro.datasets.degree import degree_percentile, fraction_below
from repro.datasets.synthetic import (
    DATASET_PAPER_FACTS,
    available_datasets,
    load_dataset,
)

SCALES = {"movielens": 64, "sec_edgar": 64, "scrna": 24, "nytimes": 64}


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name, scale=SCALES[name])
            for name in available_datasets()}


class TestRegistry:
    def test_four_datasets(self):
        assert set(available_datasets()) == {"movielens", "sec_edgar",
                                             "scrna", "nytimes"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("netflix")

    def test_deterministic(self):
        a = load_dataset("movielens", scale=128)
        b = load_dataset("movielens", scale=128)
        assert a.matrix.allclose(b.matrix)

    def test_seed_changes_data(self):
        a = load_dataset("movielens", scale=128, seed=1)
        b = load_dataset("movielens", scale=128, seed=2)
        assert not (a.matrix.shape == b.matrix.shape
                    and a.matrix.nnz == b.matrix.nnz
                    and np.array_equal(a.matrix.indices, b.matrix.indices))


class TestStructuralFidelity:
    def test_shape_ratio_preserved(self, datasets):
        for ds in datasets.values():
            # rows shrink faster than columns (sublinear column scaling), so
            # the paper's row/column ratio shrinks by scale**0.25; just
            # check orientation sanity.
            assert ds.shape[0] > 100 and ds.shape[1] > 100

    @pytest.mark.parametrize("name", ["movielens", "scrna", "nytimes"])
    def test_density_near_paper(self, datasets, name):
        ds = datasets[name]
        paper = DATASET_PAPER_FACTS[name].density
        assert ds.density == pytest.approx(paper, rel=0.35)

    def test_sec_edgar_degrees_absolute(self, datasets):
        # SEC degrees are capped at 51 n-grams regardless of scale.
        ds = datasets["sec_edgar"]
        assert ds.matrix.max_degree() <= 51

    def test_scrna_has_degree_floor(self, datasets):
        # Every cell expresses many genes: min degree stays well above 0.
        assert datasets["scrna"].matrix.min_degree() > 10

    def test_movielens_heavy_tail(self, datasets):
        ds = datasets["movielens"]
        deg = ds.matrix.row_degrees()
        assert deg.max() > 10 * max(1.0, np.median(deg))

    def test_values_positive(self, datasets):
        for ds in datasets.values():
            assert np.all(ds.matrix.data > 0)

    def test_sorted_canonical(self, datasets):
        for ds in datasets.values():
            assert ds.matrix.has_sorted_indices()


class TestFigure1Anchors:
    """The scaled analogues of the prose facts anchored to Figure 1."""

    def test_sec_99pct_small_degrees(self, datasets):
        # paper: 99% of SEC degrees < 10 (absolute, scale-free)
        assert fraction_below(datasets["sec_edgar"].matrix, 20) >= 0.97

    def test_movielens_88pct(self, datasets):
        # paper: 88% of MovieLens degrees < 200; scaled by k-shrinkage.
        ds = datasets["movielens"]
        scaled_bound = 200 / (SCALES["movielens"] ** 0.75) * (
            ds.shape[1] / (194_000 / SCALES["movielens"] ** 0.75))
        assert fraction_below(ds.matrix, max(scaled_bound, 10)) >= 0.80

    def test_scrna_98pct(self, datasets):
        # paper: 98% of scRNA rows have degree <= 5K of 26K columns (19%).
        ds = datasets["scrna"]
        bound = 0.20 * ds.shape[1]
        assert fraction_below(ds.matrix, bound) >= 0.95

    def test_nytimes_highest_relative_variance_of_text_sets(self, datasets):
        # paper: NYT has the highest degree variance among the text sets.
        def cv(m):
            deg = m.row_degrees().astype(float)
            return deg.std() / max(deg.mean(), 1e-9)

        assert cv(datasets["nytimes"].matrix) > cv(datasets["sec_edgar"].matrix)

    def test_degree_percentile_helper(self, datasets):
        ds = datasets["scrna"]
        p50 = degree_percentile(ds.matrix, 0.5)
        p99 = degree_percentile(ds.matrix, 0.99)
        assert 0 < p50 <= p99


class TestSummaryRow:
    def test_fields(self, datasets):
        row = datasets["movielens"].summary_row()
        assert set(row) == {"dataset", "size", "density", "min_deg",
                            "max_deg"}
        assert row["dataset"] == "movielens"
