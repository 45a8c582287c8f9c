"""Basic blocks: straight-line instruction sequences ended by a terminator.

The paper defines a basic block as "a sequence of instructions (operations)
with no branches into or out of the middle" (§3); these are the unit at
which profiling counters, weights and kernel selection operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .operations import Instruction, OpClass, Opcode


@dataclass
class BasicBlock:
    """One basic block inside a function's CFG.

    ``label`` is unique within the function.  ``bb_id`` is a *program-wide*
    identifier assigned by CDFG construction so results can reference blocks
    the way the paper's tables do ("BB no. 22").  A value of ``-1`` means
    "not yet numbered".
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    bb_id: int = -1

    def append(self, instruction: Instruction) -> None:
        if self.is_terminated:
            raise ValueError(
                f"cannot append to terminated block {self.label!r}"
            )
        self.instructions.append(instruction)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].opcode.is_control:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator (the DFG payload)."""
        if self.is_terminated:
            return self.instructions[:-1]
        return list(self.instructions)

    def successor_labels(self) -> tuple[str, ...]:
        terminator = self.terminator
        if terminator is None or terminator.opcode is Opcode.RET:
            return ()
        return terminator.targets

    # ------------------------------------------------------------------
    # Statistics used by the analysis stage
    # ------------------------------------------------------------------
    def count_op_classes(self) -> dict[OpClass, int]:
        """Histogram of operator classes over the block body."""
        counts: dict[OpClass, int] = {}
        for instruction in self.body:
            op_class = instruction.op_class
            counts[op_class] = counts.get(op_class, 0) + 1
        return counts

    def memory_access_count(self) -> int:
        return sum(1 for ins in self.body if ins.opcode.is_memory)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {ins}" for ins in self.instructions)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)
