"""Whole-program Control/Data Flow Graph (paper §3, step 1).

A :class:`CDFG` bundles the per-function CFGs, assigns program-wide basic
block numbers (the "BB no." of the paper's tables), and caches per-block
DFGs.  It is the input to the analysis stage, both mappers, and the
partitioning engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.ast_nodes import Program
from ..frontend.parser import parse_program
from ..frontend.semantic import analyze_program
from .basicblock import BasicBlock
from .cfg import ControlFlowGraph
from .dfg import DataFlowGraph, DFGStatistics
from .lowering import lower_program


@dataclass(frozen=True)
class BlockKey:
    """Identifies one basic block inside the whole program."""

    function: str
    label: str

    def __str__(self) -> str:
        return f"{self.function}/{self.label}"


class CDFG:
    """Program-level view over lowered CFGs with stable block numbering."""

    def __init__(
        self, program: Program, cfgs: dict[str, ControlFlowGraph]
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self._by_id: dict[int, BlockKey] = {}
        self._dfg_cache: dict[BlockKey, DataFlowGraph] = {}
        self._assign_block_ids()

    # ------------------------------------------------------------------
    # Block numbering
    # ------------------------------------------------------------------
    def _assign_block_ids(self) -> None:
        """Number blocks 1..N in (function declaration order, RPO) order.

        The paper reports basic blocks by number ("BB no. 22"); we produce a
        deterministic program-wide numbering so analysis reports, the
        partitioning engine and the experiment tables all refer to the same
        blocks across runs.
        """
        next_id = 1
        for function in self.program.functions:
            cfg = self.cfgs[function.name]
            for label in cfg.reverse_post_order():
                block = cfg.block(label)
                block.bb_id = next_id
                self._by_id[next_id] = BlockKey(function.name, label)
                next_id += 1

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def cfg(self, function: str) -> ControlFlowGraph:
        return self.cfgs[function]

    def block(self, key: BlockKey) -> BasicBlock:
        return self.cfgs[key.function].block(key.label)

    def block_by_id(self, bb_id: int) -> BasicBlock:
        return self.block(self._by_id[bb_id])

    def key_for_id(self, bb_id: int) -> BlockKey:
        return self._by_id[bb_id]

    def all_block_keys(self) -> list[BlockKey]:
        return [self._by_id[bb_id] for bb_id in sorted(self._by_id)]

    def all_blocks(self) -> list[BasicBlock]:
        return [self.block(key) for key in self.all_block_keys()]

    @property
    def block_count(self) -> int:
        return len(self._by_id)

    def dfg(self, key: BlockKey) -> DataFlowGraph:
        """The (cached) data-flow graph of one block."""
        if key not in self._dfg_cache:
            self._dfg_cache[key] = DataFlowGraph(self.block(key))
        return self._dfg_cache[key]

    def dfg_by_id(self, bb_id: int) -> DataFlowGraph:
        return self.dfg(self._by_id[bb_id])

    def statistics(self) -> dict[int, DFGStatistics]:
        """DFG statistics for every block, keyed by program-wide BB id."""
        return {
            bb_id: DFGStatistics.from_dfg(self.dfg(key))
            for bb_id, key in sorted(self._by_id.items())
        }

    def prune_removed_blocks(self) -> list[int]:
        """Re-sync the id index after passes removed blocks.

        Blocks deleted from a member CFG (unreachable-code elimination)
        are dropped from ``_by_id`` and the DFG cache; surviving blocks
        keep their numbering, so recorded profiles and partitioning
        results stay valid (ids simply gain gaps).  Returns the pruned
        program-wide bb_ids.
        """
        stale = [
            bb_id
            for bb_id, key in self._by_id.items()
            if key.label not in self.cfgs[key.function].blocks
        ]
        for bb_id in stale:
            key = self._by_id.pop(bb_id)
            self._dfg_cache.pop(key, None)
        return stale

    def verify(self) -> None:
        """Structural CFG checks; block DFGs are acyclic by construction."""
        for cfg in self.cfgs.values():
            cfg.verify()

    def __str__(self) -> str:
        lines = [f"CDFG ({self.block_count} basic blocks)"]
        for cfg in self.cfgs.values():
            lines.append(str(cfg))
        return "\n".join(lines)


def build_cdfg(program: Program, verify: bool | None = None) -> CDFG:
    """Lower an analyzed AST into a CDFG.

    When the IR sanitizer is active (the default; see
    :func:`repro.ir.verify.set_sanitizer`), the freshly lowered CDFG is
    statically verified and construction fails with a
    :class:`~repro.ir.verify.VerificationError` carrying block-level
    diagnostics rather than handing malformed IR downstream.
    """
    from .verify import assert_verified, sanitizer_enabled

    cdfg = CDFG(program, lower_program(program))
    if sanitizer_enabled() if verify is None else verify:
        assert_verified(cdfg, "frontend lowering")
    return cdfg


def cdfg_from_source(
    source: str, filename: str = "<source>", verify: bool | None = None
) -> CDFG:
    """Full pipeline: parse, semantic-check, lower, and number blocks."""
    program = parse_program(source, filename)
    analyze_program(program)
    return build_cdfg(program, verify=verify)
