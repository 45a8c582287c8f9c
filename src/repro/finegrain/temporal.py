"""Temporal partitioning of DFGs onto the fine-grain fabric.

This is a faithful implementation of the paper's Figure 3 algorithm:

* nodes are visited level by level (ASAP order);
* each node is appended to the current partition while the accumulated
  area fits in ``A_FPGA``; when it does not, a new partition is opened and
  the node starts it;
* execution is mutually exclusive across partitions: each partition is a
  full-reconfiguration context of the device, with boundary values staged
  through the shared data memory.

Note: the pseudocode in Figure 3 places ``level = level + 1`` inside the
``for`` loop, which would skip levels; the surrounding prose ("If the nodes
in the current ASAP level are all assigned to a partition, then the next
level nodes are considered") makes the intent unambiguous, so we increment
after the per-level sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.dfg import DataFlowGraph
from ..platform.characterization import HardwareCharacterization
from .asap import nodes_in_level_order, widest_node_area


class TemporalPartitioningError(ValueError):
    """Raised when a DFG node cannot fit into the fabric at all."""


@dataclass
class TemporalPartition:
    """One FPGA configuration: the node ids mapped into it and their area."""

    index: int
    node_ids: list[int] = field(default_factory=list)
    area_used: int = 0

    @property
    def node_count(self) -> int:
        return len(self.node_ids)


@dataclass
class TemporalPartitioning:
    """Result of partitioning one DFG: partition list + assignment map."""

    dfg: DataFlowGraph
    area_budget: int
    partitions: list[TemporalPartition] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict)

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def validate(self, characterization: HardwareCharacterization) -> None:
        """Check the Figure 3 invariants.

        * every node is assigned exactly once;
        * no partition exceeds the area budget;
        * partition indices never decrease along increasing ASAP levels
          (the algorithm only ever opens new partitions going forward);
        * data dependencies never point from a later partition to an
          earlier one (stable inputs guaranteed by level-order execution).
        """
        assigned = set(self.assignment)
        expected = {node.node_id for node in self.dfg.nodes}
        if assigned != expected:
            raise AssertionError(
                f"assignment covers {len(assigned)} nodes, expected "
                f"{len(expected)}"
            )
        for partition in self.partitions:
            area = sum(
                characterization.fpga_area(self.dfg.node(n).opcode)
                for n in partition.node_ids
            )
            if area != partition.area_used:
                raise AssertionError(
                    f"partition {partition.index} records area "
                    f"{partition.area_used}, actual {area}"
                )
            if area > self.area_budget:
                raise AssertionError(
                    f"partition {partition.index} exceeds the budget: "
                    f"{area} > {self.area_budget}"
                )
        asap = self.dfg.asap_levels()
        order = sorted(
            self.dfg.nodes, key=lambda node: (asap[node.node_id], node.node_id)
        )
        last_partition = 0
        for node in order:
            partition = self.assignment[node.node_id]
            if partition < last_partition:
                raise AssertionError(
                    "partition index decreased along level order"
                )
            last_partition = partition
        for src, dst in self.dfg.edges():
            if self.assignment[src] > self.assignment[dst]:
                raise AssertionError(
                    f"dependency {src}->{dst} crosses partitions backwards"
                )


def partition_dfg(
    dfg: DataFlowGraph,
    area_budget: int,
    characterization: HardwareCharacterization,
) -> TemporalPartitioning:
    """Run the Figure 3 algorithm on one DFG.

    Raises :class:`TemporalPartitioningError` if any single node is larger
    than the budget (it could never be placed).
    """
    if area_budget <= 0:
        raise TemporalPartitioningError("area budget must be positive")
    widest = widest_node_area(dfg, characterization)
    if widest > area_budget:
        raise TemporalPartitioningError(
            f"a DFG node needs {widest} area units but only "
            f"{area_budget} are available"
        )

    result = TemporalPartitioning(dfg, area_budget)
    if not dfg.nodes:
        return result

    current = TemporalPartition(index=1)
    result.partitions.append(current)
    area_covered = 0
    for node in nodes_in_level_order(dfg):
        node_area = characterization.fpga_area(node.opcode)
        if area_covered + node_area <= area_budget:
            current.node_ids.append(node.node_id)
            current.area_used += node_area
            area_covered += node_area
        else:
            current = TemporalPartition(index=current.index + 1)
            result.partitions.append(current)
            current.node_ids.append(node.node_id)
            current.area_used = node_area
            area_covered = node_area
        result.assignment[node.node_id] = current.index
    return result
