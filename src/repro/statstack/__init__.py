"""StatStack: statistical LRU cache modeling from reuse distances.

Implements Eklov & Hagersten's StatStack (reuse-distance to
stack-distance conversion, fully-associative LRU miss-rate estimation)
and the multithreaded usage of Ahlman's extension as applied by RPPM:
per-thread distributions predict private-cache miss rates (with
coherence invalidations as guaranteed misses), global interleaved
distributions predict shared-LLC miss rates.
"""

from repro.statstack.statstack import expected_stack_distances, miss_rate
from repro.statstack.multithread import (
    HierarchyMissRates,
    hierarchy_miss_rates,
    instruction_miss_rates,
)

__all__ = [
    "expected_stack_distances",
    "miss_rate",
    "HierarchyMissRates",
    "hierarchy_miss_rates",
    "instruction_miss_rates",
]
