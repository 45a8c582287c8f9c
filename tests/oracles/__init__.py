"""Reference implementations the production code is tested against."""

from .ir_routines import (
    PerSweepDefiniteAssignment,
    PerSweepLiveness,
    PerSweepReachingDefinitions,
)
from .ir_routines import fold_constants_in_block as oracle_fold_constants
from .lexer import tokenize as oracle_tokenize
from .object_substrate import (
    CostState,
    GreedyTrajectory,
    ObjectPartitioner,
    full_rescan,
    object_partitioner,
)

__all__ = [
    "CostState",
    "GreedyTrajectory",
    "ObjectPartitioner",
    "PerSweepDefiniteAssignment",
    "PerSweepLiveness",
    "PerSweepReachingDefinitions",
    "full_rescan",
    "object_partitioner",
    "oracle_fold_constants",
    "oracle_tokenize",
]
