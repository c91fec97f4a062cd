"""k-NN classifier tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.neighbors.estimators import KNeighborsClassifier


def _blobs(rng, n_per=40, k=12, separation=3.0):
    """Two separated sparse-ish blobs with labels."""
    a = rng.normal(0.0, 1.0, size=(n_per, k))
    b = rng.normal(separation, 1.0, size=(n_per, k))
    x = np.vstack([a, b]) * (rng.random((2 * n_per, k)) < 0.8)
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


class TestClassifier:
    def test_separable_blobs(self, rng):
        x, y = _blobs(rng)
        clf = KNeighborsClassifier(n_neighbors=5).fit(x, y)
        q, qy = _blobs(rng, n_per=15)
        assert clf.score(q, qy) > 0.9

    def test_predict_proba_rows_sum_to_one(self, rng):
        x, y = _blobs(rng)
        clf = KNeighborsClassifier(n_neighbors=7).fit(x, y)
        proba = clf.predict_proba(x)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert proba.shape == (x.shape[0], 2)

    def test_distance_weighting_respects_exact_match(self, rng):
        x, y = _blobs(rng)
        clf = KNeighborsClassifier(n_neighbors=5, weights="distance",
                                   metric="manhattan").fit(x, y)
        # querying a training point must return its own label
        pred = clf.predict(x[:10])
        np.testing.assert_array_equal(pred, y[:10])

    def test_string_labels(self, rng):
        x, _ = _blobs(rng, n_per=10)
        y = np.array(["cat"] * 10 + ["dog"] * 10)
        clf = KNeighborsClassifier(n_neighbors=3).fit(x, y)
        pred = clf.predict(x)
        assert set(pred) <= {"cat", "dog"}

    def test_unfitted(self):
        with pytest.raises(ReproError):
            KNeighborsClassifier().predict(np.zeros((1, 3)))

    def test_length_mismatch(self, rng):
        x, y = _blobs(rng, n_per=5)
        with pytest.raises(ReproError):
            KNeighborsClassifier().fit(x, y[:-1])

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="quadratic")

    def test_works_on_namm_metric(self, rng):
        x, y = _blobs(rng)
        clf = KNeighborsClassifier(n_neighbors=5,
                                   metric="canberra").fit(x, y)
        assert clf.score(x, y) > 0.85
        assert clf.last_report.simulated_seconds > 0

