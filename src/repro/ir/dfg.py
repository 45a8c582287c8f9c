"""Per-basic-block data-flow graphs.

The mapping algorithms of §3.2/§3.3 operate on the DFG of each basic block:
nodes are the block's operations, edges are data dependencies.  We also add
conservative memory-ordering edges (store->load, store->store, load->store
on the same array) so schedulers cannot reorder conflicting accesses.

ASAP levels follow the paper's convention (level 1 = nodes with no
in-block predecessors); "all the DFG nodes with the same level can be
considered for parallel execution without any dependency check" (§3.2).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .basicblock import BasicBlock
from .operations import (
    ArrayBase,
    Instruction,
    OpClass,
    Opcode,
    Temp,
    VarRef,
)


@dataclass(frozen=True)
class DFGNode:
    """One operation node in a basic block's DFG."""

    node_id: int
    instruction: Instruction

    @property
    def opcode(self) -> Opcode:
        return self.instruction.opcode

    @property
    def op_class(self) -> OpClass:
        return self.instruction.op_class

    def __str__(self) -> str:
        return f"n{self.node_id}:{self.instruction.opcode.mnemonic}"


class DataFlowGraph:
    """Dependency DAG over the body (non-terminator) ops of one block.

    Edges are stored per node as ``preds[n]`` and ``succs[n]``: tuples of
    node ids without duplicates, in the order each edge was first drawn.
    """

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.nodes: list[DFGNode] = []
        self.preds: tuple[tuple[int, ...], ...] = ()
        self.succs: tuple[tuple[int, ...], ...] = ()
        self.live_in_scalars: set[str] = set()
        self.live_out_scalars: set[str] = set()
        self.arrays_read: set[str] = set()
        self.arrays_written: set[str] = set()
        self._build()
        self._asap: dict[int, int] | None = None
        self._alap: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        body = self.block.body
        self.nodes = [DFGNode(i, ins) for i, ins in enumerate(body)]
        # Dicts as ordered sets: a repeated edge keeps its first position.
        preds: list[dict[int, None]] = [{} for _ in body]
        succs: list[dict[int, None]] = [{} for _ in body]

        def add_edge(src: int, dst: int) -> None:
            # Producers are recorded before their consumer, so src <= dst;
            # a CALL passing one array twice would be its own barrier.
            # Every edge thus runs forward and the DFG is acyclic by
            # construction.
            if src != dst:
                preds[dst][src] = None
                succs[src][dst] = None

        temp_def: dict[Temp, int] = {}
        var_def: dict[str, int] = {}
        last_store: dict[str, int] = {}
        loads_since_store: dict[str, list[int]] = {}

        for node in self.nodes:
            ins = node.instruction
            # Value dependencies.
            for operand in ins.operands:
                if isinstance(operand, Temp):
                    producer = temp_def.get(operand)
                    if producer is not None:
                        add_edge(producer, node.node_id)
                elif isinstance(operand, VarRef):
                    producer = var_def.get(operand.name)
                    if producer is not None:
                        add_edge(producer, node.node_id)
                    else:
                        self.live_in_scalars.add(operand.name)
                elif isinstance(operand, ArrayBase):
                    if ins.opcode is Opcode.LOAD or ins.opcode is Opcode.CALL:
                        self.arrays_read.add(operand.name)
                    if ins.opcode is Opcode.STORE:
                        self.arrays_written.add(operand.name)
                    if ins.opcode is Opcode.CALL:
                        # Calls may read and write the array.
                        self.arrays_written.add(operand.name)

            # Memory-ordering dependencies.
            if ins.opcode is Opcode.LOAD:
                base = ins.operands[0]
                assert isinstance(base, ArrayBase)
                store = last_store.get(base.name)
                if store is not None:
                    add_edge(store, node.node_id)
                loads_since_store.setdefault(base.name, []).append(node.node_id)
            elif ins.opcode is Opcode.STORE:
                base = ins.operands[0]
                assert isinstance(base, ArrayBase)
                store = last_store.get(base.name)
                if store is not None:
                    add_edge(store, node.node_id)
                for load in loads_since_store.get(base.name, []):
                    add_edge(load, node.node_id)
                loads_since_store[base.name] = []
                last_store[base.name] = node.node_id
            elif ins.opcode is Opcode.CALL:
                # A call is a scheduling barrier for every array it touches.
                for operand in ins.operands:
                    if isinstance(operand, ArrayBase):
                        store = last_store.get(operand.name)
                        if store is not None:
                            add_edge(store, node.node_id)
                        for load in loads_since_store.get(operand.name, []):
                            add_edge(load, node.node_id)
                        loads_since_store[operand.name] = []
                        last_store[operand.name] = node.node_id

            # Record definitions.
            if isinstance(ins.dest, Temp):
                temp_def[ins.dest] = node.node_id
            elif isinstance(ins.dest, VarRef):
                var_def[ins.dest.name] = node.node_id
                self.live_out_scalars.add(ins.dest.name)

        # The terminator's condition (if any) consumes block values too.
        terminator = self.block.terminator
        if terminator is not None:
            for operand in terminator.operands:
                if isinstance(operand, VarRef) and operand.name not in var_def:
                    self.live_in_scalars.add(operand.name)

        self.preds = tuple(tuple(ids) for ids in preds)
        self.succs = tuple(tuple(ids) for ids in succs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> DFGNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes)

    def predecessors(self, node_id: int) -> tuple[int, ...]:
        return self.preds[node_id]

    def successors(self, node_id: int) -> tuple[int, ...]:
        return self.succs[node_id]

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self.succs[src]

    def edges(self) -> list[tuple[int, int]]:
        """Every (src, dst) pair, by source node, then successor order."""
        return [(src, dst) for src, ids in enumerate(self.succs) for dst in ids]

    def topological_order(self) -> list[int]:
        # Node ids follow instruction order, which is already a valid
        # topological order for the dependence DAG; use it for determinism.
        return [node.node_id for node in self.nodes]

    # ------------------------------------------------------------------
    # Levels (paper §3.2)
    # ------------------------------------------------------------------
    def asap_levels(self) -> dict[int, int]:
        """1-based ASAP level per node: 1 + max over predecessors."""
        if self._asap is None:
            levels: dict[int, int] = {}
            for node_id in self.topological_order():
                preds = self.predecessors(node_id)
                levels[node_id] = (
                    1 if not preds else 1 + max(levels[p] for p in preds)
                )
            self._asap = levels
        return dict(self._asap)

    @property
    def max_level(self) -> int:
        levels = self.asap_levels()
        return max(levels.values(), default=0)

    def alap_levels(self) -> dict[int, int]:
        """1-based ALAP levels relative to the DFG's max ASAP level."""
        if self._alap is None:
            depth = self.max_level
            levels: dict[int, int] = {}
            for node_id in reversed(self.topological_order()):
                succs = self.successors(node_id)
                levels[node_id] = (
                    depth if not succs else min(levels[s] for s in succs) - 1
                )
            self._alap = levels
        return dict(self._alap)

    def slack(self) -> dict[int, int]:
        asap = self.asap_levels()
        alap = self.alap_levels()
        return {node_id: alap[node_id] - asap[node_id] for node_id in asap}

    def nodes_at_level(self, level: int) -> list[DFGNode]:
        asap = self.asap_levels()
        return [node for node in self.nodes if asap[node.node_id] == level]

    def levels(self) -> list[list[DFGNode]]:
        """Nodes grouped by ASAP level, index 0 = level 1."""
        return [self.nodes_at_level(level) for level in range(1, self.max_level + 1)]

    # ------------------------------------------------------------------
    # Statistics for analysis / communication model
    # ------------------------------------------------------------------
    def op_class_histogram(self) -> dict[OpClass, int]:
        counts: dict[OpClass, int] = {}
        for node in self.nodes:
            counts[node.op_class] = counts.get(node.op_class, 0) + 1
        return counts

    def compute_nodes(self) -> list[DFGNode]:
        """Nodes that occupy a functional unit (ALU/MUL/DIV)."""
        return [
            node
            for node in self.nodes
            if node.op_class in (OpClass.ALU, OpClass.MUL, OpClass.DIV)
        ]

    def parallelism_profile(self) -> list[int]:
        """Number of nodes per ASAP level — the width the mappers can use."""
        return [len(group) for group in self.levels()]

    def average_parallelism(self) -> float:
        profile = self.parallelism_profile()
        if not profile:
            return 0.0
        return sum(profile) / len(profile)

    def communication_words(self) -> int:
        """Scalar words crossing the block boundary (live-in + live-out).

        This feeds the shared-memory communication model (t_comm in Eq. 2):
        when a kernel moves to the coarse-grain data-path these are the
        values exchanged through the shared data memory, alongside array
        traffic already counted as LOAD/STORE operations.
        """
        return len(self.live_in_scalars) + len(self.live_out_scalars)


@dataclass
class DFGStatistics:
    """Summary numbers for one basic block's DFG."""

    node_count: int
    compute_count: int
    memory_count: int
    depth: int
    max_width: int
    average_parallelism: float
    alu_ops: int
    mul_ops: int
    div_ops: int

    @classmethod
    def from_dfg(cls, dfg: DataFlowGraph) -> "DFGStatistics":
        histogram = dfg.op_class_histogram()
        profile = dfg.parallelism_profile()
        return cls(
            node_count=len(dfg),
            compute_count=len(dfg.compute_nodes()),
            memory_count=histogram.get(OpClass.MEM, 0),
            depth=dfg.max_level,
            max_width=max(profile, default=0),
            average_parallelism=dfg.average_parallelism(),
            alu_ops=histogram.get(OpClass.ALU, 0),
            mul_ops=histogram.get(OpClass.MUL, 0),
            div_ops=histogram.get(OpClass.DIV, 0),
        )
