"""Pricing and data types of the partitioning flow (paper §3.4, Figure 2).

The Figure 2 loop itself runs as
:class:`~repro.search.greedy.GreedyPartitioner` on the packed cost
tables priced here.
"""

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
from .engine import EngineConfig
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
    "PackedCostTable",
    "PackedGreedyTrajectory",
    "PackedVisitLog",
    "PartitionResult",
    "PartitionStep",
    "TableResolver",
    "kernel_communication",
    "total_communication_cycles",
    "workload_from_cdfg",
]
