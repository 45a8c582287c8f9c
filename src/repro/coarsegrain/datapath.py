"""The coarse-grain data-path: CGCs + register bank + steering network.

"This data-path consists of a set of Coarse-Grain Components (CGCs)
implemented in ASIC technology, a reconfigurable interconnection network,
and a register bank" (§3.3).  The data-path exposes the aggregate resources
the list scheduler allocates each cycle: compute node slots, the chaining
depth, and shared-memory ports for kernel loads/stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.dfg import DataFlowGraph, DFGNode
from ..ir.operations import OpClass
from .cgc import CGC, cgc_node_executable, make_cgc_array


class UnsupportedOperationError(ValueError):
    """A DFG contains an operation the CGC data-path cannot execute."""


@dataclass
class CGCDatapath:
    """A configured coarse-grain data-path instance.

    ``memory_ports`` bounds concurrent shared-memory accesses per CGC cycle
    (kernel array traffic); ``register_bank_size`` bounds values held
    between cycles.
    """

    cgcs: list[CGC] = field(default_factory=lambda: make_cgc_array(2))
    memory_ports: int = 2
    register_bank_size: int = 64
    #: CGC clock cycles one shared-memory access occupies its port for.
    #: The shared data memory is a single physical SRAM shared with the
    #: fine-grain fabric; it does not get faster because the CGC clock is
    #: faster, so at T_FPGA = 3·T_CGC an access costs ~3 CGC cycles.
    memory_latency: int = 3

    def __post_init__(self) -> None:
        if not self.cgcs:
            raise ValueError("data-path needs at least one CGC")
        if self.memory_ports < 1:
            raise ValueError("data-path needs at least one memory port")
        if self.register_bank_size < 1:
            raise ValueError("register bank must hold at least one value")
        if self.memory_latency < 1:
            raise ValueError("memory latency must be at least one cycle")

    # ------------------------------------------------------------------
    # Aggregate resources
    # ------------------------------------------------------------------
    @property
    def node_slots_per_cycle(self) -> int:
        """Compute operations issueable per CGC cycle (one per node)."""
        return sum(cgc.node_count for cgc in self.cgcs)

    @property
    def chain_depth(self) -> int:
        """Dependent-op chain length executable within one cycle."""
        return max(cgc.chain_depth for cgc in self.cgcs)

    @property
    def cgc_count(self) -> int:
        return len(self.cgcs)

    def describe(self) -> str:
        """Human-readable configuration, e.g. ``two 2x2`` / ``three 2x2``."""
        names = {2: "two", 3: "three", 1: "one", 4: "four"}
        geometry = self.cgcs[0].geometry
        homogeneous = all(c.geometry == geometry for c in self.cgcs)
        if homogeneous:
            count_name = names.get(self.cgc_count, str(self.cgc_count))
            return f"{count_name} {geometry}"
        return ", ".join(str(c) for c in self.cgcs)

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def supports_dfg(self, dfg: DataFlowGraph) -> bool:
        """True if every DFG node is executable on this data-path."""
        return _first_unsupported(dfg) is None

    def reject_unsupported(self, dfg: DataFlowGraph) -> None:
        """Raise with a precise message when a DFG cannot be mapped."""
        node = _first_unsupported(dfg)
        if node is not None:
            raise UnsupportedOperationError(
                f"operation {node.opcode.mnemonic!r} (node "
                f"{node.node_id}) is not executable on CGC nodes"
            )


#: Classes that never occupy a CGC node: memory ops use the shared ports
#: and moves are routing.
_ROUTED = (OpClass.MOVE, OpClass.MEM)


def _first_unsupported(dfg: DataFlowGraph) -> DFGNode | None:
    """The first node the data-path cannot execute, if any."""
    for node in dfg.nodes:
        opcode = node.instruction.opcode
        if opcode.op_class not in _ROUTED and not cgc_node_executable(opcode):
            return node
    return None


def standard_datapath(cgc_count: int, rows: int = 2, cols: int = 2,
                      **kwargs) -> CGCDatapath:
    """The experiment configurations: ``standard_datapath(2)`` = two 2x2."""
    return CGCDatapath(cgcs=make_cgc_array(cgc_count, rows, cols), **kwargs)
