"""Optimization passes over lowered CFGs: block-local and whole-CFG.

These keep the DFGs the mappers see honest: a naive lowering emits folding
opportunities (e.g. linearized 2-D indices with constant rows) and dead
temps that real compilers would never hand to a mapper.  The block-local
passes (fold / copy-propagate / DCE) preserve basic-block structure; the
*global* passes layered on top use the dataflow framework
(:mod:`repro.ir.dataflow`) to act across blocks:

* :func:`simplify_constant_branches` — CBR on a constant condition (or
  with two identical targets) becomes an unconditional BR, exposing
  unreachable code;
* :func:`eliminate_unreachable_blocks` — drops blocks no path from the
  entry reaches.  Removed blocks never carried execution frequency, so
  partitioning results are unaffected;
* :func:`eliminate_dead_code_global` — liveness-based DCE: a scalar
  write is removed when no path can read it again (the block-local DCE
  must keep every ``VarRef`` write because it cannot see other blocks).

The pipeline drivers (:func:`optimize_cfg`, :func:`optimize_cdfg`)
iterate local+global passes to a fixed point and — when the IR sanitizer
is enabled (:func:`repro.ir.verify.set_sanitizer`) — re-verify the IR
after every iteration that changed it, so a buggy pass is caught at the
iteration that broke the CDFG instead of deep inside a mapper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: cdfg builds passes' sanitizer
    from .cdfg import CDFG

from .basicblock import BasicBlock
from .cfg import ControlFlowGraph
from .dataflow import LivenessAnalysis
from .operations import (
    Const,
    Instruction,
    Opcode,
    Temp,
    VarRef,
)
from .opsemantics import FOLDABLE_OPCODES, evaluate_opcode
from .verify import VerificationError, sanitizer_enabled, verify_cfg

#: Keys every pipeline totals dict carries (stable reporting schema).
PASS_TOTAL_KEYS = (
    "folded",
    "propagated",
    "removed",
    "branches_simplified",
    "unreachable_removed",
    "global_removed",
)


def fold_constants_in_block(block: BasicBlock) -> int:
    """Evaluate ops whose operands are all constants; returns fold count.

    Folded instructions become ``COPY dest <- #value`` so downstream passes
    (copy propagation, DCE) can finish cleaning them up.
    """
    known: dict[Temp, Const] = {}
    folded = 0
    new_instructions: list[Instruction] = []
    for ins in block.instructions:
        operands = ins.operands
        if known:
            operands = tuple(
                known.get(op, op) if isinstance(op, Temp) else op
                for op in operands
            )
            if operands != ins.operands:
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
                    ins.opcode, tuple(op.value for op in operands)  # type: ignore[union-attr]
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


def propagate_copies_in_block(block: BasicBlock) -> int:
    """Forward temp-to-temp/const copies into later uses (block-local)."""
    replacement: dict[Temp, object] = {}
    rewrites = 0
    new_instructions: list[Instruction] = []
    for ins in block.instructions:
        operands = []
        changed = False
        for op in ins.operands:
            if isinstance(op, Temp) and op in replacement:
                operands.append(replacement[op])
                changed = True
            else:
                operands.append(op)
        if changed:
            rewrites += 1
            ins = Instruction(
                ins.opcode,
                dest=ins.dest,
                operands=tuple(operands),
                targets=ins.targets,
                callee=ins.callee,
                result_type=ins.result_type,
                location=ins.location,
            )
        if (
            ins.opcode is Opcode.COPY
            and isinstance(ins.dest, Temp)
            and isinstance(ins.operands[0], (Temp, Const))
        ):
            source = ins.operands[0]
            # Chase chains: if the source itself has a replacement use that.
            if isinstance(source, Temp) and source in replacement:
                source = replacement[source]  # type: ignore[assignment]
            replacement[ins.dest] = source
        elif isinstance(ins.dest, Temp):
            replacement.pop(ins.dest, None)
        # A scalar VarRef write invalidates copies that read that VarRef.
        if isinstance(ins.dest, VarRef):
            stale = [
                t
                for t, v in replacement.items()
                if isinstance(v, VarRef) and v.name == ins.dest.name
            ]
            for t in stale:
                del replacement[t]
        new_instructions.append(ins)
    block.instructions = new_instructions
    return rewrites


def eliminate_dead_code_in_block(block: BasicBlock) -> int:
    """Remove pure instructions whose Temp result is never used.

    Temps are block-local by construction, so liveness is purely local.
    CALLs, STOREs, VarRef writes and terminators are always kept.
    """
    used: set[Temp] = set()
    for ins in block.instructions:
        for op in ins.operands:
            if isinstance(op, Temp):
                used.add(op)
    removed = 0
    kept: list[Instruction] = []
    for ins in reversed(block.instructions):
        is_dead = (
            isinstance(ins.dest, Temp)
            and ins.dest not in used
            and ins.opcode is not Opcode.CALL
            and not ins.opcode.is_control
            and ins.opcode is not Opcode.STORE
        )
        if is_dead:
            removed += 1
            continue
        kept.append(ins)
    kept.reverse()
    block.instructions = kept
    return removed


# ----------------------------------------------------------------------
# Global passes
# ----------------------------------------------------------------------
def simplify_constant_branches(cfg: ControlFlowGraph) -> int:
    """Turn decidable CBRs into BRs; returns the simplification count.

    A conditional branch whose condition folded to a constant (or whose
    two targets coincide) always goes one way; rewriting it to an
    unconditional BR lets :func:`eliminate_unreachable_blocks` drop the
    never-taken side and block-local DCE reclaim the dead condition.
    """
    simplified = 0
    for block in cfg.blocks.values():
        terminator = block.terminator
        if terminator is None or terminator.opcode is not Opcode.CBR:
            continue
        condition = terminator.operands[0]
        taken: str | None = None
        if isinstance(condition, Const):
            taken = terminator.targets[0] if condition.value else terminator.targets[1]
        elif terminator.targets[0] == terminator.targets[1]:
            taken = terminator.targets[0]
        if taken is not None:
            block.instructions[-1] = Instruction(
                Opcode.BR, targets=(taken,), location=terminator.location
            )
            simplified += 1
    return simplified


def eliminate_unreachable_blocks(cfg: ControlFlowGraph) -> list[str]:
    """Drop blocks unreachable from the entry; returns removed labels.

    Surviving blocks keep their program-wide ``bb_id``: unreachable
    blocks never execute, so the numbering (and with it every recorded
    profile and partitioning result) stays valid with gaps.
    """
    reachable = cfg.reachable_labels()
    doomed = [label for label in cfg.blocks if label not in reachable]
    for label in doomed:
        del cfg.blocks[label]
    return doomed


def eliminate_dead_code_global(cfg: ControlFlowGraph) -> int:
    """Liveness-based DCE across blocks; returns the removal count.

    Removes pure scalar writes — including ``VarRef`` writes the local
    DCE must conservatively keep — when the destination is dead: no
    path from the write can read the variable again.  Global scalars
    are modelled as live across calls and at every function exit, and
    CALL/STORE/terminators are never removed.
    """
    liveness = LivenessAnalysis().solve(cfg)
    global_scalars = frozenset(
        name
        for name, info in cfg.variables.items()
        if info.is_global and not info.is_array
    )
    removed = 0
    for label, block in cfg.blocks.items():
        if label not in liveness.out_sets:
            continue  # unreachable: left for eliminate_unreachable_blocks
        live = set(liveness.out_sets[label])
        used_temps: set[Temp] = set()
        kept: list[Instruction] = []
        for ins in reversed(block.instructions):
            removable = (
                ins.opcode is not Opcode.CALL
                and ins.opcode is not Opcode.STORE
                and not ins.opcode.is_control
                and (
                    (isinstance(ins.dest, Temp) and ins.dest not in used_temps)
                    or (
                        isinstance(ins.dest, VarRef)
                        and ins.dest.name not in live
                    )
                )
            )
            if removable:
                removed += 1
                continue
            if isinstance(ins.dest, VarRef):
                live.discard(ins.dest.name)
            for op in ins.operands:
                if isinstance(op, Temp):
                    used_temps.add(op)
                elif isinstance(op, VarRef):
                    live.add(op.name)
            if ins.opcode is Opcode.CALL:
                # The callee may read any global before we regain control.
                live |= global_scalars
            kept.append(ins)
        kept.reverse()
        block.instructions = kept
    return removed


# ----------------------------------------------------------------------
# Pipeline drivers
# ----------------------------------------------------------------------
def run_block_passes(block: BasicBlock, max_iterations: int = 4) -> dict[str, int]:
    """Fold/propagate/DCE to a fixed point (bounded)."""
    totals = {"folded": 0, "propagated": 0, "removed": 0}
    for _ in range(max_iterations):
        folded = fold_constants_in_block(block)
        propagated = propagate_copies_in_block(block)
        removed = eliminate_dead_code_in_block(block)
        totals["folded"] += folded
        totals["propagated"] += propagated
        totals["removed"] += removed
        if folded == propagated == removed == 0:
            break
    return totals


def _empty_totals() -> dict[str, int]:
    return dict.fromkeys(PASS_TOTAL_KEYS, 0)


def _merge(totals: dict[str, int], other: dict[str, int]) -> None:
    for key, value in other.items():
        totals[key] += value


def _sanitize_cfg(cfg: ControlFlowGraph, context: str) -> None:
    errors = [d for d in verify_cfg(cfg) if d.severity == "error"]
    if errors:
        raise VerificationError(errors, context)


def optimize_cfg(
    cfg: ControlFlowGraph,
    *,
    global_passes: bool = True,
    verify: bool | None = None,
    max_iterations: int = 8,
) -> dict[str, int]:
    """Run the local (+ global) pass pipeline over a CFG to a fixed point.

    ``verify=None`` defers to the module sanitizer switch
    (:func:`repro.ir.verify.sanitizer_enabled`); when active, the IR is
    re-verified after every pass iteration that changed it and a
    :class:`~repro.ir.verify.VerificationError` pinpoints the iteration
    that corrupted it.  The state handed in is its producer's to verify
    (:func:`~repro.ir.cdfg.build_cdfg` does), so a function no pass
    touches is never re-verified here.
    """
    sanitize = sanitizer_enabled() if verify is None else verify
    totals = _empty_totals()
    for iteration in range(max_iterations):
        changed = 0
        first_sweep = 0
        for block in cfg:
            local = run_block_passes(block)
            _merge(totals, local)
            first_sweep += sum(local.values())
        if global_passes:
            branches = simplify_constant_branches(cfg)
            unreachable = len(eliminate_unreachable_blocks(cfg))
            globally_removed = eliminate_dead_code_global(cfg)
            totals["branches_simplified"] += branches
            totals["unreachable_removed"] += unreachable
            totals["global_removed"] += globally_removed
            changed += branches + unreachable + globally_removed
            # Local cleanup of what the global passes exposed counts
            # toward this iteration's progress via the next sweep.
            for block in cfg:
                local = run_block_passes(block)
                _merge(totals, local)
                changed += sum(local.values())
        # The exit test leaves the first sweep out: counting it would
        # only add a no-op iteration to functions it already cleaned.
        if sanitize and changed + first_sweep:
            _sanitize_cfg(cfg, f"pass pipeline iteration {iteration}")
        if changed == 0:
            break
    cfg.verify()
    return totals


def optimize_cdfg(
    cdfg: CDFG,
    *,
    global_passes: bool = True,
    verify: bool | None = None,
    max_iterations: int = 8,
) -> dict[str, int]:
    """Optimize every function of a CDFG in place.

    Surviving blocks keep their bb_ids (see
    :func:`eliminate_unreachable_blocks`); the CDFG's id index and DFG
    cache are refreshed to match.  Note: invalidates cached DFGs, so
    this must run before any DFG queries.
    """
    totals = _empty_totals()
    for cfg in cdfg.cfgs.values():
        _merge(
            totals,
            optimize_cfg(
                cfg,
                global_passes=global_passes,
                verify=verify,
                max_iterations=max_iterations,
            ),
        )
    cdfg.prune_removed_blocks()
    cdfg._dfg_cache.clear()
    return totals
