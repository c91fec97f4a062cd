"""Benchmark datasets and text featurization.

Synthetic structural replicas of the paper's four Table-2 corpora
(:mod:`~repro.datasets.synthetic`), degree-distribution analysis for
Figure 1 (:mod:`~repro.datasets.degree`), and the TF-IDF / n-gram
vectorizers plus text generators the examples use
(:mod:`~repro.datasets.featurize`, :mod:`~repro.datasets.corpus`).
"""

from repro.datasets.corpus import generate_company_names, generate_documents
from repro.datasets.degree import (
    degree_balanced_shards,
    degree_cdf,
    degree_percentile,
    fraction_below,
)
from repro.datasets.featurize import CharNgramVectorizer, TfidfVectorizer
from repro.datasets.synthetic import (
    DATASET_PAPER_FACTS,
    SyntheticDataset,
    available_datasets,
    load_dataset,
    make_skewed,
)

__all__ = [
    "load_dataset",
    "available_datasets",
    "make_skewed",
    "SyntheticDataset",
    "DATASET_PAPER_FACTS",
    "degree_cdf",
    "degree_percentile",
    "fraction_below",
    "degree_balanced_shards",
    "TfidfVectorizer",
    "CharNgramVectorizer",
    "generate_documents",
    "generate_company_names",
]
