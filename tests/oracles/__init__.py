"""Reference implementations the production code is tested against."""

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
    "full_rescan",
    "object_partitioner",
    "oracle_tokenize",
]
