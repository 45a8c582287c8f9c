"""Static CDFG verification: structural invariants as diagnostics.

Every consumer of a CDFG — the analysis stage, both mappers, the
interpreter/compiler pair, the packed cost tables — assumes well-formed
IR: one terminator per block, resolvable branch targets, operands that
match their opcode's shape, no reads of undefined temps or locals.
Until now those assumptions were only checked dynamically, when a
differential suite happened to execute the broken block.  This module
checks them *statically* and reports violations as structured
:class:`Diagnostic` records (function, label, program-wide bb_id, op
index), so a malformed CDFG is rejected at construction time with an
actionable message instead of failing somewhere inside a mapper.

The checks, in dependency order:

1. **Structure** — entry block exists, labels are consistent, every
   block ends in exactly one terminator and contains no control ops
   mid-block, every successor label resolves, a RET exists.
2. **Operand shapes** — per-opcode arity/target/dest requirements (the
   table below mirrors :mod:`repro.ir.opsemantics` and the lowering
   contract documented on :class:`repro.ir.operations.Instruction`),
   operand kinds (ArrayBase only as a LOAD/STORE base), and variable
   resolution against the CFG's variable table.
3. **Dataflow** — temps are defined before use (and at most once) inside
   their block; every local scalar read is definitely assigned along all
   paths from the entry (:class:`repro.ir.dataflow.DefiniteAssignment`);
   loop headers found by :class:`repro.ir.loops.LoopForest` dominate
   their loop bodies.

Dataflow checks only run for functions whose structure verified clean —
dominators over a CFG with dangling edges are meaningless.  Per-block
DFGs need no check: :class:`repro.ir.dfg.DataFlowGraph` only draws an
edge from an earlier instruction to a later one, so they are acyclic by
construction.

The module-level *sanitizer switch* gates the verification wired into
hot paths (CDFG construction, the pass pipeline, the block compiler):
:func:`set_sanitizer` / env var ``REPRO_IR_SANITIZE=0`` turn it off for
workloads where construction cost matters more than early rejection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: cdfg builds verify lazily
    from .cdfg import CDFG

from .basicblock import BasicBlock
from .cfg import ControlFlowGraph
from .dataflow import DefiniteAssignment, upward_exposed_temp_uses
from .dominators import DominatorTree
from .loops import LoopForest
from .operations import ArrayBase, Const, Instruction, Opcode, Temp, VarRef

# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One verification finding, pinned to a block (and op) location."""

    code: str
    message: str
    function: str = ""
    label: str = ""
    bb_id: int = -1
    op_index: int | None = None
    severity: str = ERROR

    def __str__(self) -> str:
        where = f"{self.function}/{self.label}" if self.label else self.function
        if self.bb_id >= 0:
            where += f" (BB {self.bb_id})"
        if self.op_index is not None:
            where += f" op {self.op_index}"
        prefix = f"{self.severity}[{self.code}]"
        return f"{prefix} {where}: {self.message}" if where else (
            f"{prefix}: {self.message}"
        )


class VerificationError(ValueError):
    """Raised when a CDFG fails verification; carries the diagnostics."""

    def __init__(
        self, diagnostics: list[Diagnostic], context: str = ""
    ) -> None:
        self.diagnostics = list(diagnostics)
        shown = "\n".join(f"  {d}" for d in self.diagnostics[:8])
        extra = len(self.diagnostics) - 8
        if extra > 0:
            shown += f"\n  ... and {extra} more"
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}CDFG verification failed with "
            f"{len(self.diagnostics)} error(s):\n{shown}"
        )


@dataclass
class VerificationReport:
    """All diagnostics from one verification run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_errors(self, context: str = "") -> None:
        if not self.ok:
            raise VerificationError(self.errors, context)

    def render(self) -> str:
        if not self.diagnostics:
            return "verification clean"
        return "\n".join(str(d) for d in self.diagnostics)


# ----------------------------------------------------------------------
# Opcode shapes (arity table)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpcodeShape:
    """Structural contract of one opcode family."""

    min_operands: int
    max_operands: int
    targets: int = 0
    #: True = dest required, False = dest forbidden, None = optional.
    needs_dest: bool | None = True


_UNARY_VALUE_OPS = (
    Opcode.NEG,
    Opcode.BNOT,
    Opcode.LNOT,
    Opcode.ABS,
    Opcode.SQRT,
    Opcode.SIN,
    Opcode.COS,
    Opcode.FLOOR,
    Opcode.ROUND,
    Opcode.I2F,
    Opcode.F2I,
    Opcode.COPY,
    Opcode.CONST,
)
_BINARY_VALUE_OPS = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.LT,
    Opcode.GT,
    Opcode.LE,
    Opcode.GE,
    Opcode.EQ,
    Opcode.NE,
    Opcode.MIN,
    Opcode.MAX,
)

OPCODE_SHAPES: dict[Opcode, OpcodeShape] = {
    **{op: OpcodeShape(1, 1) for op in _UNARY_VALUE_OPS},
    **{op: OpcodeShape(2, 2) for op in _BINARY_VALUE_OPS},
    Opcode.SELECT: OpcodeShape(3, 3),
    Opcode.LOAD: OpcodeShape(2, 2),
    Opcode.STORE: OpcodeShape(3, 3, needs_dest=False),
    Opcode.BR: OpcodeShape(0, 0, targets=1, needs_dest=False),
    Opcode.CBR: OpcodeShape(1, 1, targets=2, needs_dest=False),
    Opcode.RET: OpcodeShape(0, 1, needs_dest=False),
    Opcode.CALL: OpcodeShape(0, 64, needs_dest=None),
}


def _safe_reachable(cfg: ControlFlowGraph) -> set[str]:
    """Labels reachable from the entry, tolerating dangling successors.

    ``cfg.reachable_labels()`` assumes every successor resolves — which
    is exactly what may not hold for the IR being diagnosed here.
    """
    reachable: set[str] = set()
    stack = [cfg.entry_label]
    while stack:
        label = stack.pop()
        if label is None or label in reachable or label not in cfg.blocks:
            continue
        reachable.add(label)
        stack.extend(cfg.blocks[label].successor_labels())
    return reachable


class _Checker:
    """Accumulates diagnostics for one CFG."""

    def __init__(
        self, cfg: ControlFlowGraph, cdfg: CDFG | None = None
    ) -> None:
        self.cfg = cfg
        self.cdfg = cdfg
        self.function = cfg.function_name
        self.diagnostics: list[Diagnostic] = []

    def report(
        self,
        code: str,
        message: str,
        block: BasicBlock | None = None,
        op_index: int | None = None,
        severity: str = ERROR,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                function=self.function,
                label=block.label if block is not None else "",
                bb_id=block.bb_id if block is not None else -1,
                op_index=op_index,
                severity=severity,
            )
        )

    # ------------------------------------------------------------------
    # 1. Structure
    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        cfg = self.cfg
        if cfg.entry_label is None or cfg.entry_label not in cfg.blocks:
            self.report(
                "missing-entry",
                f"entry label {cfg.entry_label!r} does not name a block",
            )
            return
        has_return = False
        for key, block in cfg.blocks.items():
            if key != block.label:
                self.report(
                    "label-mismatch",
                    f"block keyed {key!r} is labelled {block.label!r}",
                    block,
                )
            if not block.instructions:
                self.report("empty-block", "block has no instructions", block)
                continue
            for index, instruction in enumerate(block.instructions[:-1]):
                if instruction.opcode.is_control:
                    self.report(
                        "double-terminator",
                        f"control op {instruction.opcode.mnemonic} before "
                        "the end of the block",
                        block,
                        index,
                    )
            last = block.instructions[-1]
            if not last.opcode.is_control:
                self.report(
                    "missing-terminator",
                    f"block falls through after "
                    f"{last.opcode.mnemonic}",
                    block,
                    len(block.instructions) - 1,
                )
                continue
            if last.opcode is Opcode.RET:
                has_return = True
            for target in last.targets:
                if target not in cfg.blocks:
                    self.report(
                        "dangling-successor",
                        f"terminator targets unknown block {target!r}",
                        block,
                        len(block.instructions) - 1,
                    )
        if not has_return:
            self.report("missing-return", "function has no RET block")
        reachable = _safe_reachable(cfg)
        for label in cfg.blocks:
            if label not in reachable:
                self.report(
                    "unreachable-block",
                    "block is unreachable from the entry",
                    cfg.blocks[label],
                    severity=WARNING,
                )

    # ------------------------------------------------------------------
    # 2. Operand shapes
    # ------------------------------------------------------------------
    def check_shapes(self) -> None:
        for block in self.cfg.blocks.values():
            for index, instruction in enumerate(block.instructions):
                self._check_instruction(block, index, instruction)

    def _check_instruction(
        self, block: BasicBlock, index: int, instruction: Instruction
    ) -> None:
        shape = OPCODE_SHAPES.get(instruction.opcode)
        if shape is None:
            self.report(
                "unknown-opcode",
                f"no shape for opcode {instruction.opcode!r}",
                block,
                index,
            )
            return
        count = len(instruction.operands)
        if not shape.min_operands <= count <= shape.max_operands:
            expected = (
                str(shape.min_operands)
                if shape.min_operands == shape.max_operands
                else f"{shape.min_operands}..{shape.max_operands}"
            )
            self.report(
                "bad-arity",
                f"{instruction.opcode.mnemonic} has {count} operand(s), "
                f"expected {expected}",
                block,
                index,
            )
        if len(instruction.targets) != shape.targets:
            self.report(
                "bad-target-count",
                f"{instruction.opcode.mnemonic} has "
                f"{len(instruction.targets)} target(s), expected "
                f"{shape.targets}",
                block,
                index,
            )
        if shape.needs_dest is True and not isinstance(
            instruction.dest, (Temp, VarRef)
        ):
            self.report(
                "missing-dest",
                f"{instruction.opcode.mnemonic} must write a Temp/VarRef",
                block,
                index,
            )
        if shape.needs_dest is False and instruction.dest is not None:
            self.report(
                "unexpected-dest",
                f"{instruction.opcode.mnemonic} cannot have a dest",
                block,
                index,
            )
        memory_op = instruction.opcode in (Opcode.LOAD, Opcode.STORE)
        is_call = instruction.opcode is Opcode.CALL
        for position, operand in enumerate(instruction.operands):
            if isinstance(operand, ArrayBase):
                if is_call:
                    # Whole arrays are passed to callees by reference.
                    self._check_array_base(block, index, operand)
                elif not (memory_op and position == 0):
                    self.report(
                        "misplaced-array-base",
                        f"array base {operand.name!r} outside a "
                        "LOAD/STORE base position",
                        block,
                        index,
                    )
                else:
                    self._check_array_base(block, index, operand)
            elif isinstance(operand, VarRef):
                self._check_varref(block, index, operand, "operand")
            elif not isinstance(operand, (Temp, Const)):
                self.report(
                    "bad-operand",
                    f"operand {operand!r} is not a Temp/VarRef/"
                    "ArrayBase/Const",
                    block,
                    index,
                )
        if memory_op and instruction.operands and not isinstance(
            instruction.operands[0], ArrayBase
        ):
            self.report(
                "missing-array-base",
                f"{instruction.opcode.mnemonic} base operand is "
                f"{instruction.operands[0]!r}, expected an ArrayBase",
                block,
                index,
            )
        if isinstance(instruction.dest, VarRef):
            self._check_varref(block, index, instruction.dest, "dest")
        if instruction.opcode is Opcode.CALL:
            self._check_call(block, index, instruction)

    def _check_array_base(
        self, block: BasicBlock, index: int, base: ArrayBase
    ) -> None:
        info = self.cfg.variables.get(base.name)
        if info is None:
            self.report(
                "unknown-variable",
                f"array base {base.name!r} is not in the variable table",
                block,
                index,
            )
        elif not info.is_array:
            self.report(
                "scalar-as-array",
                f"{base.name!r} is a scalar but used as an array base",
                block,
                index,
            )

    def _check_varref(
        self, block: BasicBlock, index: int, ref: VarRef, role: str
    ) -> None:
        info = self.cfg.variables.get(ref.name)
        if info is None:
            self.report(
                "unknown-variable",
                f"{role} {ref.name!r} is not in the variable table",
                block,
                index,
            )
        elif info.is_array:
            self.report(
                "array-as-scalar",
                f"{ref.name!r} is an array but used as a scalar {role}",
                block,
                index,
            )

    def _check_call(
        self, block: BasicBlock, index: int, instruction: Instruction
    ) -> None:
        if not instruction.callee:
            self.report("missing-callee", "CALL without a callee", block, index)
            return
        if self.cdfg is None:
            return
        callee_cfg = self.cdfg.cfgs.get(instruction.callee)
        if callee_cfg is None:
            self.report(
                "unknown-callee",
                f"CALL targets unknown function {instruction.callee!r}",
                block,
                index,
            )
            return
        expected = len(callee_cfg.param_names)
        if len(instruction.operands) != expected:
            self.report(
                "bad-call-arity",
                f"CALL {instruction.callee} passes "
                f"{len(instruction.operands)} argument(s), expected "
                f"{expected}",
                block,
                index,
            )

    # ------------------------------------------------------------------
    # 3. Dataflow (only on structurally clean functions)
    # ------------------------------------------------------------------
    def check_dataflow(self) -> None:
        self._check_temps()
        self._check_definite_assignment()
        self._check_loops()

    def _check_temps(self) -> None:
        for block in self.cfg.blocks.values():
            defined: set[Temp] = set()
            reported: set[Temp] = set()
            for index, instruction in enumerate(block.instructions):
                for operand in instruction.operands:
                    if (
                        isinstance(operand, Temp)
                        and operand not in defined
                        and operand not in reported
                    ):
                        self.report(
                            "temp-use-before-def",
                            f"{operand} read before any definition in "
                            "its block (temps are block-local)",
                            block,
                            index,
                        )
                        reported.add(operand)
                if isinstance(instruction.dest, Temp):
                    if instruction.dest in defined:
                        self.report(
                            "temp-redefinition",
                            f"{instruction.dest} defined more than once "
                            "in one block",
                            block,
                            index,
                        )
                    defined.add(instruction.dest)

    def _check_definite_assignment(self) -> None:
        result = DefiniteAssignment().solve(self.cfg)
        reachable = self.cfg.reachable_labels()
        for label in reachable:
            block = self.cfg.blocks[label]
            assigned = set(result.in_sets[label])
            for index, instruction in enumerate(block.instructions):
                for operand in instruction.operands:
                    if (
                        isinstance(operand, VarRef)
                        and operand.name not in assigned
                        and operand.name in self.cfg.variables
                        and not self.cfg.variables[operand.name].is_array
                    ):
                        self.report(
                            "use-before-def",
                            f"{operand.name!r} may be read before "
                            "assignment on some path",
                            block,
                            index,
                        )
                        # One report per (block, name) is enough.
                        assigned.add(operand.name)
                if isinstance(instruction.dest, VarRef):
                    assigned.add(instruction.dest.name)

    def _check_loops(self) -> None:
        dom = DominatorTree(self.cfg)
        forest = LoopForest(self.cfg, dom)
        for loop in forest.loops:
            for label in loop.body:
                if label == loop.header:
                    continue
                if not dom.dominates(loop.header, label):
                    self.report(
                        "loop-header-dominance",
                        f"loop header {loop.header!r} does not dominate "
                        f"body block {label!r}",
                        self.cfg.blocks.get(label) or self.cfg.blocks[loop.header],
                    )

    # ------------------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        self.check_structure()
        self.check_shapes()
        if not any(d.severity == ERROR for d in self.diagnostics):
            self.check_dataflow()
        return self.diagnostics


def verify_cfg(
    cfg: ControlFlowGraph, cdfg: CDFG | None = None
) -> list[Diagnostic]:
    """All diagnostics for one function's CFG."""
    return _Checker(cfg, cdfg).run()


def verify_cdfg(cdfg: CDFG) -> VerificationReport:
    """Verify a whole CDFG; returns a report, never raises."""
    report = VerificationReport()
    seen_ids: dict[int, str] = {}
    for function_name, cfg in cdfg.cfgs.items():
        report.diagnostics.extend(verify_cfg(cfg, cdfg))
        for label in sorted(_safe_reachable(cfg)):
            block = cfg.blocks.get(label)
            if block is None:
                continue
            where = f"{function_name}/{label}"
            if block.bb_id < 1:
                report.diagnostics.append(
                    Diagnostic(
                        "unnumbered-block",
                        "reachable block has no program-wide bb_id",
                        function_name,
                        label,
                        block.bb_id,
                    )
                )
                continue
            if block.bb_id in seen_ids:
                report.diagnostics.append(
                    Diagnostic(
                        "duplicate-block-id",
                        f"bb_id {block.bb_id} also assigned to "
                        f"{seen_ids[block.bb_id]}",
                        function_name,
                        label,
                        block.bb_id,
                    )
                )
            seen_ids[block.bb_id] = where
            key = cdfg.key_for_id(block.bb_id) if block.bb_id in cdfg._by_id else None
            if key is None or key.function != function_name or key.label != label:
                report.diagnostics.append(
                    Diagnostic(
                        "block-id-mismatch",
                        f"bb_id {block.bb_id} maps to {key} in the CDFG "
                        "index",
                        function_name,
                        label,
                        block.bb_id,
                    )
                )
    return report


def assert_verified(cdfg: CDFG, context: str = "") -> None:
    """Raise :class:`VerificationError` if the CDFG has any errors."""
    verify_cdfg(cdfg).raise_if_errors(context)


# ----------------------------------------------------------------------
# Sanitizer switch
# ----------------------------------------------------------------------
def _env_default() -> bool:
    return os.environ.get("REPRO_IR_SANITIZE", "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


_SANITIZE: bool | None = None


def sanitizer_enabled() -> bool:
    """Whether wired-in verification (build/pass/compile) is active."""
    if _SANITIZE is not None:
        return _SANITIZE
    return _env_default()


def set_sanitizer(enabled: bool | None) -> None:
    """Force the sanitizer on/off; ``None`` restores the env default."""
    global _SANITIZE
    _SANITIZE = enabled
