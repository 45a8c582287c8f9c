"""Reference implementations the production code is tested against."""

from .cgc_scheduler import (
    RetryListScheduler,
    oracle_schedule_dfg,
    validate_per_cycle,
)
from .exact_search import (
    ExactSearch,
    branch_and_bound,
    budgeted_walk,
    expected_log,
    gray_walk,
)
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
    "ExactSearch",
    "GreedyTrajectory",
    "ObjectPartitioner",
    "PerSweepDefiniteAssignment",
    "PerSweepLiveness",
    "PerSweepReachingDefinitions",
    "RetryListScheduler",
    "branch_and_bound",
    "budgeted_walk",
    "expected_log",
    "full_rescan",
    "gray_walk",
    "object_partitioner",
    "oracle_fold_constants",
    "oracle_schedule_dfg",
    "oracle_tokenize",
    "validate_per_cycle",
]
