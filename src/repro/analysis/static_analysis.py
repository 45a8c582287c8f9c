"""Static analysis within basic blocks (paper §3.1).

The Lex-based static pass of the paper "identifies the basic operations and
the memory accesses inside the basic blocks and generates a detailed and
illustrative overview of the distribution of the algorithm complexity over
basic operators".  This module produces exactly that: per-block operator
histograms, weights and memory-access counts over a CDFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.basicblock import BasicBlock
from ..ir.cdfg import CDFG
from ..ir.operations import OpClass
from .weights import WeightModel


@dataclass(frozen=True)
class BlockStaticInfo:
    """Static facts about one basic block."""

    bb_id: int
    function: str
    label: str
    bb_weight: int
    alu_ops: int
    mul_ops: int
    div_ops: int
    memory_accesses: int
    move_ops: int
    call_ops: int
    #: ``len(block.instructions)`` including the terminator — the same
    #: count the block compiler bakes into its slots, so static totals
    #: can be checked against ``profiles_from_frequencies`` inputs.
    instruction_count: int = 0

    @property
    def compute_ops(self) -> int:
        return self.alu_ops + self.mul_ops + self.div_ops


@dataclass
class StaticAnalysisResult:
    """Per-block static info plus program-level distributions."""

    blocks: dict[int, BlockStaticInfo] = field(default_factory=dict)

    def operator_distribution(self) -> dict[str, int]:
        """Program-wide complexity distribution over operator classes —
        the "illustrative overview" output of the paper's static pass."""
        totals = {"alu": 0, "mul": 0, "div": 0, "mem": 0, "move": 0, "call": 0}
        for info in self.blocks.values():
            totals["alu"] += info.alu_ops
            totals["mul"] += info.mul_ops
            totals["div"] += info.div_ops
            totals["mem"] += info.memory_accesses
            totals["move"] += info.move_ops
            totals["call"] += info.call_ops
        return totals

    def heaviest_blocks(self, count: int = 8) -> list[BlockStaticInfo]:
        ordered = sorted(
            self.blocks.values(), key=lambda b: (-b.bb_weight, b.bb_id)
        )
        return ordered[:count]

    def total_instructions(self) -> int:
        """Program-wide instruction count, terminators included."""
        return sum(info.instruction_count for info in self.blocks.values())


def analyze_block(
    block: BasicBlock,
    weight_model: WeightModel,
    function: str = "",
) -> BlockStaticInfo:
    """Static info for one block (works for real and synthetic blocks)."""
    histogram = block.count_op_classes()
    return BlockStaticInfo(
        bb_id=block.bb_id,
        function=function,
        label=block.label,
        bb_weight=weight_model.block_weight(block),
        alu_ops=histogram.get(OpClass.ALU, 0),
        mul_ops=histogram.get(OpClass.MUL, 0),
        div_ops=histogram.get(OpClass.DIV, 0),
        memory_accesses=histogram.get(OpClass.MEM, 0),
        move_ops=histogram.get(OpClass.MOVE, 0),
        call_ops=histogram.get(OpClass.CALL, 0),
        instruction_count=len(block.instructions),
    )


def analyze_cdfg(
    cdfg: CDFG, weight_model: WeightModel | None = None
) -> StaticAnalysisResult:
    """Run static analysis over every block of a CDFG."""
    model = weight_model or WeightModel()
    result = StaticAnalysisResult()
    for key in cdfg.all_block_keys():
        block = cdfg.block(key)
        result.blocks[block.bb_id] = analyze_block(block, model, key.function)
    return result
