"""Neighborhood methods built on the pairwise semiring primitive.

Brute-force k-NN (the paper's end-to-end §4.2 path), batched top-k
selection, and k-NN graph construction for downstream methods (UMAP/t-SNE
style connectivities).
"""

from repro.neighbors.brute_force import KnnQueryReport, NearestNeighbors
from repro.neighbors.estimators import KNeighborsClassifier
from repro.neighbors.graph import knn_graph, symmetrize
from repro.neighbors.topk import TopKAccumulator, select_topk

__all__ = [
    "NearestNeighbors",
    "KNeighborsClassifier",
    "KnnQueryReport",
    "knn_graph",
    "symmetrize",
    "select_topk",
    "TopKAccumulator",
]
