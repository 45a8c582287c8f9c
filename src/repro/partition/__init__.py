"""Partitioning engine (paper §3.4, Figure 2 flow) and its data types."""

from .comm import (
    CommunicationCost,
    kernel_communication,
    total_communication_cycles,
)
from .costs import (
    BlockContribution,
    BlockCosts,
    CostModel,
    CostStats,
)
from .engine import (
    EngineConfig,
    EngineStats,
    PartitioningEngine,
    partition_application,
)
from .packed import (
    PackedCostTable,
    PackedGreedyTrajectory,
    PackedVisitLog,
)
from .resolver import TableResolver
from .result import PartitionResult, PartitionStep
from .workload import (
    ApplicationWorkload,
    BlockWorkload,
    workload_from_cdfg,
)

__all__ = [
    "ApplicationWorkload",
    "BlockContribution",
    "BlockCosts",
    "BlockWorkload",
    "CommunicationCost",
    "CostModel",
    "CostStats",
    "EngineConfig",
    "EngineStats",
    "PackedCostTable",
    "PackedGreedyTrajectory",
    "PackedVisitLog",
    "PartitionResult",
    "PartitionStep",
    "PartitioningEngine",
    "TableResolver",
    "kernel_communication",
    "partition_application",
    "total_communication_cycles",
    "workload_from_cdfg",
]
