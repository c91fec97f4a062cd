"""k-NN classifier / regressor tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.neighbors.estimators import KNeighborsClassifier, KNeighborsRegressor


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


class TestRegressor:
    def test_recovers_smooth_function(self, rng):
        x = rng.random((120, 4))
        y = x.sum(axis=1)
        reg = KNeighborsRegressor(n_neighbors=4).fit(x, y)
        q = rng.random((30, 4))
        pred = reg.predict(q)
        assert np.abs(pred - q.sum(axis=1)).mean() < 0.3
        assert reg.score(q, q.sum(axis=1)) > 0.5

    def test_distance_weighting_exact_match(self, rng):
        x = rng.random((50, 5))
        y = rng.random(50)
        reg = KNeighborsRegressor(n_neighbors=5, weights="distance",
                                  metric="manhattan").fit(x, y)
        np.testing.assert_allclose(reg.predict(x[:8]), y[:8], atol=1e-9)

    def test_uniform_is_neighbor_mean(self, rng):
        x = rng.random((20, 3))
        y = rng.random(20)
        reg = KNeighborsRegressor(n_neighbors=3).fit(x, y)
        dist, idx = reg._nn.kneighbors(x[:5])
        np.testing.assert_allclose(reg.predict(x[:5]),
                                   y[idx].mean(axis=1), atol=1e-12)

    def test_constant_targets_score(self, rng):
        x = rng.random((15, 3))
        y = np.ones(15)
        reg = KNeighborsRegressor(n_neighbors=3).fit(x, y)
        assert reg.score(x, y) == 0.0  # ss_tot == 0 convention
