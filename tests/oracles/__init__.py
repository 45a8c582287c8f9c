"""Reference implementations the production code is tested against."""

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
]
