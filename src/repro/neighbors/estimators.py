"""k-NN classification on the sparse semiring primitive.

The paper motivates the primitive with "classification, retrieval, and
visualization applications" built on nearest-neighbor queries. This
estimator closes the classification loop with the standard scikit-learn
semantics (uniform or distance weighting), running every query through the
same batched, simulated-device pairwise machinery.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ReproError
from repro.neighbors.brute_force import NearestNeighbors

__all__ = ["KNeighborsClassifier"]


def _distance_weights(distances: np.ndarray) -> np.ndarray:
    """1/d weights with exact matches (d == 0) taking all the mass."""
    with np.errstate(divide="ignore"):
        w = 1.0 / distances
    exact = distances <= 1e-12
    has_exact = exact.any(axis=1)
    w[has_exact] = 0.0
    w[exact] = 1.0
    return w


class KNeighborsClassifier:
    """Majority-vote (optionally distance-weighted) k-NN classification."""

    def __init__(self, n_neighbors: int = 5, *, metric: str = "euclidean",
                 weights: str = "uniform", metric_params: Optional[dict] = None,
                 engine="hybrid_coo", device="volta", batch_rows: int = 4096):
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.weights = weights
        self._nn = NearestNeighbors(n_neighbors=n_neighbors, metric=metric,
                                    metric_params=metric_params,
                                    engine=engine, device=device,
                                    batch_rows=batch_rows)
        self._targets: Optional[np.ndarray] = None

    def fit(self, x, y) -> "KNeighborsClassifier":
        y = np.asarray(y)
        self._nn.fit(x)
        if y.shape[0] != self._nn.n_samples_fit:
            raise ReproError(
                f"X has {self._nn.n_samples_fit} rows but y has "
                f"{y.shape[0]} targets")
        self._targets = y
        self.classes_ = np.unique(y)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}
        return self

    @property
    def last_report(self):
        """Execution record of the most recent query (see NearestNeighbors)."""
        return self._nn.last_report

    def predict_proba(self, x=None) -> np.ndarray:
        if self._targets is None:
            raise ReproError("estimator is not fitted; call .fit(X, y)")
        distances, indices = self._nn.kneighbors(x)
        if self.weights == "uniform":
            weights = np.ones_like(distances)
        else:
            weights = _distance_weights(distances)
        n_queries = indices.shape[0]
        proba = np.zeros((n_queries, self.classes_.size))
        neighbor_classes = np.vectorize(self._class_index.get)(
            self._targets[indices])
        for c in range(self.classes_.size):
            proba[:, c] = np.where(neighbor_classes == c, weights, 0.0).sum(1)
        totals = proba.sum(axis=1, keepdims=True)
        np.divide(proba, totals, out=proba, where=totals > 0)
        return proba

    def predict(self, x=None) -> np.ndarray:
        proba = self.predict_proba(x)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, x, y) -> float:
        """Mean accuracy on the given queries."""
        return float(np.mean(self.predict(x) == np.asarray(y)))
