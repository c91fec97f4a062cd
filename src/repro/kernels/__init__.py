"""Execution strategies for the sparse pairwise-semiring primitive.

One class per strategy the paper discusses:

- :class:`LoadBalancedCooKernel` — Algorithm 3, the contribution (§3.3);
- :class:`MergePathKernel` — the nonzero-splitting alternative that
  load-balances the join stream itself (degree-skew immune);
- :class:`NaiveCsrKernel` — Algorithm 2, the exhaustive per-pair merge used
  as the NAMM baseline (§3.2.2);
- :class:`ExpandSortContractKernel` — Algorithm 1, kept for the ablation
  narrative (§3.2.1);
- :class:`HostKernel` — exact math with no device accounting.

The registry itself lives in :mod:`repro.kernels.engine` — every engine
carries an :class:`EngineInfo` record (factory, row-cache strategies,
autotuner eligibility) and :func:`resolve_engine_and_spec` is the one
shared implementation of name-or-instance dispatch. The csrgemm baseline
lives in :mod:`repro.baselines.csrgemm` but registers itself here so every
engine is addressable by name.
"""

from repro.kernels.base import KernelResult, PairwiseKernel, product_cost_profile
from repro.kernels.bloom_filter import BlockBloomFilter
from repro.kernels.coo_spmv import LoadBalancedCooKernel, PassProfile
from repro.kernels.engine import (
    EngineInfo,
    available_engines,
    engine_info,
    make_engine,
    register_engine,
    resolve_engine_and_spec,
    unregister_engine,
)
from repro.kernels.expand_sort_contract import ExpandSortContractKernel
from repro.kernels.functional import co_occurrence_counts, semiring_block
from repro.kernels.hash_table import BlockHashTable, murmur_hash_32
from repro.kernels.host import HostKernel
from repro.kernels.merge_path import MergePathKernel, SweepProfile
from repro.kernels.naive_csr import NaiveCsrKernel
from repro.kernels.strategy import (
    PartitionPlan,
    RowCacheStrategy,
    choose_strategy,
    plan_partitions,
    stage_row_partitioned,
)

__all__ = [
    "PairwiseKernel",
    "KernelResult",
    "LoadBalancedCooKernel",
    "MergePathKernel",
    "NaiveCsrKernel",
    "ExpandSortContractKernel",
    "HostKernel",
    "PassProfile",
    "SweepProfile",
    "BlockHashTable",
    "BlockBloomFilter",
    "murmur_hash_32",
    "RowCacheStrategy",
    "PartitionPlan",
    "choose_strategy",
    "plan_partitions",
    "stage_row_partitioned",
    "semiring_block",
    "co_occurrence_counts",
    "product_cost_profile",
    "EngineInfo",
    "make_engine",
    "engine_info",
    "register_engine",
    "unregister_engine",
    "available_engines",
    "resolve_engine_and_spec",
]

# Built-in engines register through the same decorator path as external
# ones, so the registry records are uniformly derived from class attributes.
for _cls in (LoadBalancedCooKernel, MergePathKernel, NaiveCsrKernel,
             ExpandSortContractKernel, HostKernel):
    register_engine(_cls)
del _cls
