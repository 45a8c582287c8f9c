"""Reference forms of two IR hot-path routines.

``fold_constants_in_block`` rebuilds every instruction on every call,
and :class:`PerSweepSolver` recomputes each block's ``gen``/``kill``
sets on every sweep of the worklist.  The production routines in
:mod:`repro.ir.passes` and :mod:`repro.ir.dataflow` do less work and
must agree with these exactly: instruction lists and fold counts,
in/out sets and iteration counts.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    DefiniteAssignment,
    LivenessAnalysis,
    ReachingDefinitions,
)
from repro.ir.operations import Const, Instruction, Opcode, Temp
from repro.ir.opsemantics import FOLDABLE_OPCODES, evaluate_opcode


def fold_constants_in_block(block: BasicBlock) -> int:
    """Evaluate ops whose operands are all constants; returns fold count."""
    known: dict[Temp, Const] = {}
    folded = 0
    new_instructions: list[Instruction] = []
    for ins in block.instructions:
        operands = tuple(
            known.get(op, op) if isinstance(op, Temp) else op
            for op in ins.operands
        )
        ins = Instruction(
            ins.opcode,
            dest=ins.dest,
            operands=operands,
            targets=ins.targets,
            callee=ins.callee,
            result_type=ins.result_type,
            location=ins.location,
        )
        if (
            ins.opcode in FOLDABLE_OPCODES
            and isinstance(ins.dest, Temp)
            and all(isinstance(op, Const) for op in operands)
        ):
            try:
                value = evaluate_opcode(
                    ins.opcode, tuple(op.value for op in operands)
                )
            except ZeroDivisionError:
                new_instructions.append(ins)
                continue
            constant = Const(value)
            known[ins.dest] = constant
            new_instructions.append(
                Instruction(
                    Opcode.COPY,
                    dest=ins.dest,
                    operands=(constant,),
                    result_type=ins.result_type,
                    location=ins.location,
                )
            )
            folded += 1
        else:
            if isinstance(ins.dest, Temp):
                known.pop(ins.dest, None)
            new_instructions.append(ins)
    block.instructions = new_instructions
    return folded


class PerSweepSolver(DataflowAnalysis):
    """The worklist solver that applies ``gen ∪ (x − kill)`` through
    fresh ``gen``/``kill`` calls for every block on every sweep.

    Mix it in after a concrete analysis (``class X(LivenessAnalysis,
    PerSweepSolver)``) so the analysis' own ``solve`` set-up runs first
    and its ``super().solve`` lands here.
    """

    def solve(
        self, cfg: ControlFlowGraph, max_iterations: int = 64
    ) -> DataflowResult:
        order = list(cfg.reverse_post_order())
        labels = set(order)
        forward = self.direction == "forward"
        meet_union = self.mode == "may"
        boundary = frozenset(self.boundary(cfg))
        top = frozenset(self.universe(cfg))
        initial = frozenset() if meet_union else top

        preds: dict[str, list[str]] = {label: [] for label in order}
        succs: dict[str, list[str]] = {label: [] for label in order}
        for label in order:
            for succ in cfg.block(label).successor_labels():
                if succ in labels:
                    succs[label].append(succ)
                    preds[succ].append(label)

        before = {label: initial for label in order}
        after = {label: initial for label in order}

        sweep = order if forward else list(reversed(order))
        sources = preds if forward else succs
        iterations = 0
        changed = True
        while changed and iterations < max_iterations:
            changed = False
            iterations += 1
            for label in sweep:
                block = cfg.block(label)
                incoming = sources[label]
                is_boundary = (
                    (forward and label == cfg.entry_label)
                    or (not forward and self._is_exit(block))
                )
                merged: frozenset | None = None
                for src in incoming:
                    contribution = after[src] if forward else before[src]
                    if merged is None:
                        merged = contribution
                    elif meet_union:
                        merged = merged | contribution
                    else:
                        merged = merged & contribution
                if merged is None:
                    value = boundary if is_boundary else initial
                elif is_boundary:
                    value = (
                        merged | boundary if meet_union else merged & boundary
                    )
                else:
                    value = merged
                transferred = self.gen(block) | (value - self.kill(block))
                if forward:
                    if value != before[label] or transferred != after[label]:
                        before[label], after[label] = value, transferred
                        changed = True
                else:
                    if value != after[label] or transferred != before[label]:
                        after[label], before[label] = value, transferred
                        changed = True
        return DataflowResult(
            in_sets=dict(before), out_sets=dict(after), iterations=iterations
        )


class PerSweepLiveness(LivenessAnalysis, PerSweepSolver):
    pass


class PerSweepReachingDefinitions(ReachingDefinitions, PerSweepSolver):
    pass


class PerSweepDefiniteAssignment(DefiniteAssignment, PerSweepSolver):
    pass
