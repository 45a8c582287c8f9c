"""CFG-level interpreter.

Executes lowered programs directly on their CDFG, which is exactly what the
dynamic-analysis step needs: every basic-block entry fires a hook, giving
per-block execution counts identical to the Lex counter instrumentation the
paper describes (§3.1), but exact instead of relying on modified sources.

Two execution engines share this front door:

* ``mode="walker"`` — the original tree-walking dispatcher below: an
  ``if/elif`` opcode chain with ``isinstance`` operand resolution and two
  hook calls per instruction.  It supports arbitrary
  :class:`InterpreterHook` observers and serves as the differential
  reference implementation.
* ``mode="compiled"`` — the block-compiled fast path
  (:mod:`repro.interp.compiler`): each basic block is translated once into
  a single specialized Python function (compiled on its first entry), and
  profiling is counter-only (block-entry counts; per-instruction
  statistics derived statically).
  Bit-identical results, ≫5x the throughput.
* ``mode="auto"`` (default) — compiled when the hook is passive (the null
  hook or a plain :class:`~repro.interp.profiler.BlockProfiler`, whose
  statistics the compiled engine reconstructs exactly from block counts),
  walker for any custom hook that needs per-instruction callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..frontend.ast_nodes import ArrayType, Type
from ..ir.basicblock import BasicBlock
from ..ir.cdfg import CDFG
from ..ir.cfg import ControlFlowGraph
from ..ir.operations import (
    ArrayBase,
    Const,
    Instruction,
    Opcode,
    Temp,
    VarRef,
)
from ..ir.opsemantics import evaluate_opcode
from .compiler import CompiledProgram, compile_cdfg
from .values import (
    ArrayStorage,
    ExecutionLimitExceeded,
    Frame,
    Number,
    coerce,
)

__all__ = [
    "ExecutionLimitExceeded",
    "ExecutionResult",
    "Interpreter",
    "InterpreterHook",
    "run_function",
]

#: Execution engine selectors accepted by :class:`Interpreter`.
MODES = ("auto", "walker", "compiled")


class InterpreterHook(Protocol):
    """Observer interface for dynamic analysis."""

    def on_block_enter(self, block: BasicBlock, function: str) -> None: ...

    def on_instruction(self, instruction: Instruction, function: str) -> None: ...


@dataclass
class ExecutionResult:
    """Outcome of one top-level call."""

    return_value: Number | None
    steps: int
    blocks_executed: int


@dataclass
class _NullHook:
    def on_block_enter(self, block: BasicBlock, function: str) -> None:
        pass

    def on_instruction(self, instruction: Instruction, function: str) -> None:
        pass


def _is_passive_hook(hook: object) -> bool:
    """Hooks whose observations the compiled engine can reconstruct
    exactly from block-entry counts (no per-instruction side effects)."""
    from .profiler import BlockProfiler

    return type(hook) in (_NullHook, BlockProfiler)


@dataclass
class Interpreter:
    """Executes functions of a CDFG.

    ``max_steps`` bounds total instructions executed across the whole call
    tree so accidentally non-terminating inputs fail fast.  ``mode``
    selects the execution engine (see the module docstring).

    ``compiled_program`` (advanced) supplies a precompiled program —
    it must be ``compile_cdfg(cdfg)`` for this exact CDFG state.  When
    omitted, the first compiled run compiles (or revalidates) the CDFG
    and the result is memoized on this instance; construct a fresh
    ``Interpreter`` after mutating the IR (the walker engine, by
    contrast, always sees mutations immediately).  The program's block
    sources were generated by ``compile_cdfg``, so it runs the IR state
    of that call even after a mutation; each block's builtin
    ``compile()`` happens on its first entry, during a run.
    """

    cdfg: CDFG
    hook: InterpreterHook = field(default_factory=_NullHook)
    max_steps: int = 200_000_000
    mode: str = "auto"
    compiled_program: CompiledProgram | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown interpreter mode {self.mode!r}; expected one of "
                f"{MODES}"
            )
        if self.mode == "compiled" and not _is_passive_hook(self.hook):
            raise ValueError(
                "compiled mode only supports passive hooks (the null hook "
                "or BlockProfiler); use mode='walker' or 'auto' for custom "
                "per-instruction hooks"
            )
        self._steps = 0
        self._blocks = 0
        self._globals: dict[str, Number] = {}
        self._global_arrays: dict[str, ArrayStorage] = {}
        self._init_globals()

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------
    def _init_globals(self) -> None:
        for decl in self.cdfg.program.globals:
            if isinstance(decl.decl_type, ArrayType):
                values = decl.init_values or []
                self._global_arrays[decl.name] = ArrayStorage.from_values(
                    decl.name, decl.decl_type, list(values)
                )
            else:
                initial = decl.init_values[0] if decl.init_values else 0
                self._globals[decl.name] = coerce(initial, decl.decl_type)

    def global_array(self, name: str) -> ArrayStorage:
        return self._global_arrays[name]

    def global_scalar(self, name: str) -> Number:
        return self._globals[name]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, function: str, *args: Number | list[Number] | ArrayStorage
    ) -> ExecutionResult:
        """Call ``function`` with positional arguments.

        Array arguments may be Python lists (copied into fresh storage whose
        mutations are visible through the returned storage via
        :meth:`ArrayStorage.snapshot` — pass an :class:`ArrayStorage` to
        observe mutations directly) or existing :class:`ArrayStorage`.
        """
        if self.mode == "compiled" or (
            self.mode == "auto" and _is_passive_hook(self.hook)
        ):
            return self._run_compiled(function, list(args))
        self._steps = 0
        self._blocks = 0
        value = self._call(function, list(args))
        return ExecutionResult(value, self._steps, self._blocks)

    # ------------------------------------------------------------------
    # Compiled engine
    # ------------------------------------------------------------------
    def _run_compiled(self, function: str, args: list) -> ExecutionResult:
        program = self.compiled_program
        if program is None:
            program = self.compiled_program = compile_cdfg(self.cdfg)
        env = program.make_env(
            self._globals, self._global_arrays, self.max_steps
        )
        value = program.call(env, function, args)
        counts = env.counts
        self._feed_passive_hook(program, counts)
        return ExecutionResult(value, env.steps, sum(counts))

    def _feed_passive_hook(
        self, program: CompiledProgram, counts: list[int]
    ) -> None:
        """Reconstruct BlockProfiler statistics from block-entry counts.

        ``dynamic_instructions`` / ``dynamic_memory_accesses`` are derived
        as ``count × static per-block totals``, which attributes every
        instruction to its own block (the walker hook misattributes a
        caller's post-call instructions to the callee's last-entered
        block; execution frequencies and whole-program totals agree
        exactly between the two engines).
        """
        from .profiler import BlockProfile, BlockProfiler

        hook = self.hook
        if type(hook) is not BlockProfiler:
            return
        profiles = hook.profiles
        for info, count in zip(program.slots, counts, strict=True):
            if count == 0:
                continue
            profile = profiles.get(info.bb_id)
            if profile is None:
                profile = BlockProfile(info.bb_id, info.function, info.label)
                profiles[info.bb_id] = profile
            profile.exec_freq += count
            profile.dynamic_instructions += count * info.instruction_count
            profile.dynamic_memory_accesses += (
                count * info.memory_access_count
            )

    # ------------------------------------------------------------------
    # Walker engine
    # ------------------------------------------------------------------
    def _call(self, function: str, args: list) -> Number | None:
        cfg = self.cdfg.cfgs.get(function)
        if cfg is None:
            raise KeyError(f"no function named {function!r}")
        frame = self._make_frame(cfg, args)
        label: str | None = cfg.entry_label
        return_value: Number | None = None
        while label is not None:
            block = cfg.block(label)
            self._blocks += 1
            self.hook.on_block_enter(block, function)
            next_label, return_value, returned = self._execute_block(
                cfg, block, frame
            )
            if returned:
                return return_value
            label = next_label
        return return_value

    def _make_frame(self, cfg: ControlFlowGraph, args: list) -> Frame:
        frame = Frame(cfg.function_name)
        if len(args) != len(cfg.param_names):
            raise TypeError(
                f"{cfg.function_name}() expects {len(cfg.param_names)} "
                f"argument(s), got {len(args)}"
            )
        for name, arg in zip(cfg.param_names, args, strict=True):
            info = cfg.variables[name]
            if info.is_array:
                assert isinstance(info.var_type, ArrayType)
                if isinstance(arg, ArrayStorage):
                    frame.arrays[name] = arg
                elif isinstance(arg, list):
                    frame.arrays[name] = ArrayStorage.from_values(
                        name, info.var_type, arg
                    )
                else:
                    raise TypeError(
                        f"parameter {name!r} expects an array, got "
                        f"{type(arg).__name__}"
                    )
            else:
                if isinstance(arg, (ArrayStorage, list)):
                    raise TypeError(
                        f"parameter {name!r} expects a scalar, got an array"
                    )
                frame.scalars[name] = coerce(arg, info.element_type)
        # Locals are materialized lazily on first write, except arrays which
        # need storage up front.
        for name, info in cfg.variables.items():
            if info.is_global or info.is_param:
                continue
            if info.is_array:
                assert isinstance(info.var_type, ArrayType)
                frame.arrays[name] = ArrayStorage.allocate(name, info.var_type)
        return frame

    def _execute_block(
        self, cfg: ControlFlowGraph, block: BasicBlock, frame: Frame
    ) -> tuple[str | None, Number | None, bool]:
        for instruction in block.instructions:
            self._steps += 1
            if self._steps > self.max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_steps} interpreted instructions"
                )
            self.hook.on_instruction(instruction, cfg.function_name)
            opcode = instruction.opcode
            if opcode is Opcode.BR:
                return instruction.targets[0], None, False
            if opcode is Opcode.CBR:
                cond = self._read(instruction.operands[0], frame)
                target = (
                    instruction.targets[0] if cond else instruction.targets[1]
                )
                return target, None, False
            if opcode is Opcode.RET:
                if instruction.operands:
                    value = self._read(instruction.operands[0], frame)
                    if cfg.return_type is not Type.VOID:
                        value = coerce(value, cfg.return_type)
                    return None, value, True
                return None, None, True
            self._execute_straightline(instruction, frame)
        raise RuntimeError(
            f"block {block.label!r} in {cfg.function_name!r} fell through "
            "without a terminator"
        )

    def _execute_straightline(self, ins: Instruction, frame: Frame) -> None:
        opcode = ins.opcode
        if opcode is Opcode.LOAD:
            base, index = ins.operands
            assert isinstance(base, ArrayBase)
            array = self._array(base.name, frame)
            index_value = int(self._read(index, frame))
            self._write(ins.dest, array.load(index_value), frame, ins.result_type)
            return
        if opcode is Opcode.STORE:
            base, index, value = ins.operands
            assert isinstance(base, ArrayBase)
            array = self._array(base.name, frame)
            index_value = int(self._read(index, frame))
            array.store(index_value, self._read(value, frame))
            return
        if opcode is Opcode.CALL:
            args = []
            for operand in ins.operands:
                if isinstance(operand, ArrayBase):
                    args.append(self._array(operand.name, frame))
                else:
                    args.append(self._read(operand, frame))
            result = self._call(ins.callee or "", args)
            if ins.dest is not None:
                assert result is not None, (
                    f"void call {ins.callee!r} used as a value"
                )
                self._write(ins.dest, result, frame, ins.result_type)
            return
        if opcode is Opcode.COPY:
            value = self._read(ins.operands[0], frame)
            self._write(ins.dest, value, frame, ins.result_type)
            return
        # Pure value operation.
        args = tuple(self._read(op, frame) for op in ins.operands)
        value = evaluate_opcode(opcode, args)
        self._write(ins.dest, value, frame, ins.result_type)

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------
    def _array(self, name: str, frame: Frame) -> ArrayStorage:
        if name in frame.arrays:
            return frame.arrays[name]
        if name in self._global_arrays:
            return self._global_arrays[name]
        raise KeyError(f"unknown array {name!r}")

    def _read(self, operand, frame: Frame) -> Number:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Temp):
            try:
                return frame.temps[operand.index]
            except KeyError as exc:
                raise RuntimeError(
                    f"read of undefined temp {operand} in {frame.function!r}"
                ) from exc
        if isinstance(operand, VarRef):
            if operand.name in frame.scalars:
                return frame.scalars[operand.name]
            if operand.name in self._globals:
                return self._globals[operand.name]
            raise RuntimeError(
                f"read of uninitialized variable {operand.name!r} in "
                f"{frame.function!r}"
            )
        raise TypeError(f"cannot read operand {operand!r}")

    def _write(
        self, dest, value: Number, frame: Frame, result_type: Type
    ) -> None:
        if isinstance(dest, Temp):
            frame.temps[dest.index] = coerce(value, result_type)
            return
        if isinstance(dest, VarRef):
            coerced = coerce(value, dest.vtype)
            if dest.name in self._globals and dest.name not in frame.scalars:
                # Writes to globals hit global storage unless shadowed.
                info = self.cdfg.cfgs[frame.function].variables.get(dest.name)
                if info is not None and info.is_global:
                    self._globals[dest.name] = coerced
                    return
            frame.scalars[dest.name] = coerced
            return
        raise TypeError(f"cannot write to {dest!r}")


def run_function(
    cdfg: CDFG,
    function: str,
    *args,
    hook: InterpreterHook | None = None,
    max_steps: int = 200_000_000,
    mode: str = "auto",
) -> ExecutionResult:
    """One-shot helper: build an interpreter and call ``function``."""
    if hook is None:
        hook = _NullHook()
    return Interpreter(cdfg, hook, max_steps, mode).run(function, *args)
