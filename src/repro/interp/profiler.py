"""Profiling hooks: the dynamic-analysis half of the paper's §3.1.

The paper instruments loop basic blocks with Lex-inserted counters, runs
the program on representative inputs, and reads back per-block execution
frequencies.  Our :class:`BlockProfiler` is the interpreter-hook equivalent:
it counts every basic-block entry (``exec_freq``) and, optionally, dynamic
memory accesses per block.

Under the block-compiled engine (``Interpreter(mode="compiled")``) the
same :class:`BlockProfiler` works as a counter-only sink: the engine
accumulates one integer per block entry and reconstructs the profiles
afterwards, with ``dynamic_instructions``/``dynamic_memory_accesses``
derived as ``exec_freq × static per-block counts``
(:func:`profiles_from_frequencies`) instead of one hook call per
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from ..ir.basicblock import BasicBlock
from ..ir.cdfg import CDFG
from ..ir.operations import Instruction


@dataclass
class BlockProfile:
    """Dynamic statistics for one basic block."""

    bb_id: int
    function: str
    label: str
    exec_freq: int = 0
    dynamic_memory_accesses: int = 0
    dynamic_instructions: int = 0


class BlockProfiler:
    """Interpreter hook accumulating per-block execution counts."""

    def __init__(self) -> None:
        self.profiles: dict[int, BlockProfile] = {}
        self._current: BlockProfile | None = None

    # Interpreter hook interface -----------------------------------------
    def on_block_enter(self, block: BasicBlock, function: str) -> None:
        profile = self.profiles.get(block.bb_id)
        if profile is None:
            profile = BlockProfile(block.bb_id, function, block.label)
            self.profiles[block.bb_id] = profile
        profile.exec_freq += 1
        self._current = profile

    def on_instruction(self, instruction: Instruction, function: str) -> None:
        profile = self._current
        if profile is None:
            return
        profile.dynamic_instructions += 1
        if instruction.opcode.is_memory:
            profile.dynamic_memory_accesses += 1

    # Queries -------------------------------------------------------------
    def exec_freq(self, bb_id: int) -> int:
        profile = self.profiles.get(bb_id)
        return 0 if profile is None else profile.exec_freq

    def frequencies(self) -> dict[int, int]:
        return {bb_id: p.exec_freq for bb_id, p in self.profiles.items()}

    def total_blocks_executed(self) -> int:
        return sum(p.exec_freq for p in self.profiles.values())

    def reset(self) -> None:
        self.profiles.clear()
        self._current = None


def profile_run(cdfg: CDFG, function: str, *args) -> BlockProfiler:
    """Run ``function`` once under profiling and return the profiler."""
    from .interpreter import Interpreter

    profiler = BlockProfiler()
    with telemetry.span("profile"):
        Interpreter(cdfg, profiler).run(function, *args)
    return profiler


def profiles_from_frequencies(
    cdfg: CDFG, frequencies: dict[int, int]
) -> dict[int, BlockProfile]:
    """Derive full :class:`BlockProfile` records from execution counts.

    ``dynamic_instructions`` and ``dynamic_memory_accesses`` are exact
    static derivations (``freq × per-block instruction / memory-op
    counts``): a block's instructions all execute each time it is entered,
    so no per-instruction observation is needed.  This is what makes the
    content-keyed profile cache possible — frequencies are the only
    dynamic fact worth storing.
    """
    profiles: dict[int, BlockProfile] = {}
    for bb_id, freq in sorted(frequencies.items()):
        if freq == 0:
            continue
        key = cdfg.key_for_id(bb_id)
        block = cdfg.block(key)
        memory_ops = block.memory_access_count()
        profiles[bb_id] = BlockProfile(
            bb_id=bb_id,
            function=key.function,
            label=key.label,
            exec_freq=freq,
            dynamic_memory_accesses=freq * memory_ops,
            dynamic_instructions=freq * len(block.instructions),
        )
    return profiles
