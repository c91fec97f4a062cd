"""The paper's primary contribution: semiring pairwise-distance primitives.

Algebra (:mod:`~repro.core.monoid`, :mod:`~repro.core.semiring`), the
Table-1 distance catalogue (:mod:`~repro.core.distances`), norm and
expansion machinery (:mod:`~repro.core.norms`), the dense reference oracle
(:mod:`~repro.core.reference`), the custom-semiring registry
(:mod:`~repro.core.registry`) and the public pairwise API
(:mod:`~repro.core.pairwise`).
"""

from repro.core.distances import (
    DOT_PRODUCT_DISTANCES,
    EXPANDED,
    NAMM,
    NAMM_DISTANCES,
    DistanceMeasure,
    available_distances,
    canonical_name,
    make_distance,
)
from repro.core.monoid import MAX, MIN, PLUS, TIMES, Monoid
from repro.core.norms import NORM_KINDS, compute_norms
from repro.core.pairwise import PairwiseResult, pairwise_distances, prepare_matrix
from repro.core.reference import pairwise_reference, reference_distance_names
from repro.core.registry import (
    get_distance,
    list_distances,
    register_custom_distance,
    unregister_distance,
)
from repro.core.semiring import (
    Semiring,
    dot_product_semiring,
    namm_semiring,
    tropical_semiring,
)

__all__ = [
    "Monoid", "PLUS", "TIMES", "MIN", "MAX",
    "Semiring", "dot_product_semiring", "namm_semiring", "tropical_semiring",
    "DistanceMeasure", "make_distance", "available_distances",
    "canonical_name", "EXPANDED", "NAMM",
    "DOT_PRODUCT_DISTANCES", "NAMM_DISTANCES",
    "compute_norms", "NORM_KINDS",
    "pairwise_distances", "PairwiseResult", "prepare_matrix",
    "pairwise_reference", "reference_distance_names",
    "register_custom_distance", "unregister_distance", "get_distance",
    "list_distances",
]
