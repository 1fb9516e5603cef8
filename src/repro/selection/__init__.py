"""Selection substrate: order statistics, multiselect, and merging.

This package implements the selection machinery the paper's sample phase
builds on — deterministic selection [Blum et al. 72], randomized selection
[Floyd & Rivest 75], the recursive multiselect of section 2.1, and the r-way
merge of per-run sample lists.
"""

from repro.selection.floyd_rivest import floyd_rivest_select
from repro.selection.kernels import multiselect_numpy
from repro.selection.kway_merge import is_sorted, kway_merge, merge_two_with_payload
from repro.selection.median_of_medians import (
    median_of_medians_pivot,
    median_of_medians_select,
)
from repro.selection.multiselect import multiselect, regular_sample_ranks
from repro.selection.partition import partition_counts, partition_three_way
from repro.selection.strategies import (
    STRATEGY_NAMES,
    FloydRivestStrategy,
    MedianOfMediansStrategy,
    NumpyPartitionStrategy,
    SelectionStrategy,
    SortStrategy,
    get_strategy,
)

__all__ = [
    "multiselect_numpy",
    "floyd_rivest_select",
    "median_of_medians_select",
    "median_of_medians_pivot",
    "multiselect",
    "regular_sample_ranks",
    "partition_three_way",
    "partition_counts",
    "kway_merge",
    "merge_two_with_payload",
    "is_sorted",
    "SelectionStrategy",
    "SortStrategy",
    "NumpyPartitionStrategy",
    "MedianOfMediansStrategy",
    "FloydRivestStrategy",
    "get_strategy",
    "STRATEGY_NAMES",
]
