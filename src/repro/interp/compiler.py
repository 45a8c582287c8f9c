"""Block-compiled execution engine: the interpreter's fast path.

The tree-walking :class:`~repro.interp.interpreter.Interpreter` resolves
every operand with ``isinstance`` chains and dispatches every opcode
through a long ``if/elif`` ladder, twice per instruction (read + write),
plus two hook calls.  For dynamic analysis (§3.1) that cost dominates
whole ``repro.explore`` sweeps, because each profiling run interprets
hundreds of thousands of instructions.

This module translates each basic block *once* into a single specialized
Python function.  :func:`compile_cdfg` generates every block's source
eagerly, so the source is a snapshot of the IR state it fingerprinted
(and, with the sanitizer on, verified up front); the builtin
``compile()`` and ``exec`` of a block run on its first entry, so blocks
that never execute cost only their codegen:

* operand accessors are resolved at compile time — a ``Temp`` becomes a
  list index, a local scalar a dict item, a global a lookup in the shared
  global store, a ``Const`` an inline literal;
* the whole straight-line run of a block is fused into one generated
  function body, so executing a block is one call instead of one dispatch
  per instruction;
* terminators return the successor *block object* directly (resolved at
  link time), so the driver loop never looks labels up;
* scalar-type coercions (``coerce``) are specialized to bare ``int()`` /
  ``float()`` calls chosen at compile time.

Execution is bit-identical to the walker for every valid program: the
same arithmetic helpers (:mod:`repro.ir.opsemantics`), the same
:class:`~repro.interp.values.ArrayStorage` bounds/type-checked accesses,
the same frame-binding rules and error messages.  The walker stays as the
differential reference (``Interpreter(mode="walker")``), as the object
pricing walks in ``tests/oracles/`` do for the packed search layer.

Profiling in compiled mode is counter-only: the driver increments one
integer per *block entry* (``env.counts[slot] += 1``); per-block
``dynamic_instructions`` / ``dynamic_memory_accesses`` are derived after
the run as ``exec_freq × static per-block counts`` instead of firing a
hook per instruction.  (For blocks containing calls the derived
attribution is in fact *more* accurate than the walker's
:class:`~repro.interp.profiler.BlockProfiler`, which attributes a
caller's post-call instructions to the callee's last block; totals agree
exactly either way.)

Compiled programs are cached on the CDFG keyed by a content fingerprint
(:func:`cdfg_fingerprint`), which is also the key of the profile cache in
:mod:`repro.interp.cache` — mutating the CDFG invalidates both.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..frontend.ast_nodes import ArrayType, Type
from ..ir.cdfg import CDFG
from ..ir.cfg import ControlFlowGraph
from ..ir.operations import ArrayBase, Const, Instruction, Opcode, Temp, VarRef
from ..ir.opsemantics import c_div, c_mod, c_round, evaluate_opcode
from ..ir.verify import assert_verified, sanitizer_enabled
from .values import ArrayStorage, ExecutionLimitExceeded, coerce


class CompileError(ValueError):
    """Raised when a CDFG contains IR the compiler cannot translate."""


# ----------------------------------------------------------------------
# Content fingerprinting
# ----------------------------------------------------------------------
def cdfg_fingerprint(cdfg: CDFG) -> str:
    """A stable content hash of a CDFG's executable semantics.

    Covers globals (name, type, initializer, constness), every function's
    signature and variable table, and every instruction of every block in
    program order.  Two CDFGs lowered from identical source always agree;
    any semantic mutation (changed constant, added instruction, retargeted
    branch) changes the fingerprint.
    """
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    for decl in cdfg.program.globals:
        feed(
            f"G {decl.name} {decl.decl_type} {decl.init_values!r} "
            f"{decl.is_const}"
        )
    for function in cdfg.program.functions:
        cfg = cdfg.cfgs[function.name]
        feed(f"F {cfg.function_name} {cfg.return_type} {cfg.param_names!r}")
        for name in sorted(cfg.variables):
            info = cfg.variables[name]
            feed(
                f"V {info.name} {info.var_type} {info.is_param} "
                f"{info.is_global} {info.is_const}"
            )
        feed(f"E {cfg.entry_label}")
        for label in cfg.reverse_post_order():
            block = cfg.block(label)
            feed(f"B {label}")
            for ins in block.instructions:
                feed(
                    f"I {ins.opcode.name} {ins.dest!r} {ins.operands!r} "
                    f"{ins.targets!r} {ins.callee!r} {ins.result_type}"
                )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Compiled program structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockInfo:
    """Static per-block facts backing derived dynamic statistics."""

    slot: int
    bb_id: int
    function: str
    label: str
    instruction_count: int
    memory_access_count: int


@dataclass(frozen=True)
class _ParamSpec:
    name: str
    is_array: bool
    var_type: Type | ArrayType
    element_type: Type


class CompiledFunction:
    """One function: linked block objects plus frame-binding metadata."""

    __slots__ = (
        "name",
        "entry",
        "params",
        "local_arrays",
        "temp_count",
    )

    def __init__(
        self,
        name: str,
        params: tuple[_ParamSpec, ...],
        local_arrays: tuple[tuple[str, ArrayType], ...],
        temp_count: int,
    ) -> None:
        self.name = name
        self.entry: tuple | None = None  # linked at codegen, rebound on entry
        self.params = params
        self.local_arrays = local_arrays
        self.temp_count = temp_count


class _Env:
    """Shared mutable execution state threaded through block functions."""

    __slots__ = (
        "globals",
        "global_arrays",
        "functions",
        "counts",
        "steps",
        "max_steps",
        "ret",
    )

    def __init__(
        self,
        global_scalars: dict,
        global_arrays: dict,
        functions: dict[str, CompiledFunction],
        slot_count: int,
        max_steps: int,
    ) -> None:
        self.globals = global_scalars
        self.global_arrays = global_arrays
        self.functions = functions
        self.counts = [0] * slot_count
        self.steps = 0
        self.max_steps = max_steps
        self.ret = None


class CompiledProgram:
    """All functions of one CDFG, compiled and linked."""

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.functions: dict[str, CompiledFunction] = {}
        self.slots: list[BlockInfo] = []

    def make_env(
        self,
        global_scalars: dict,
        global_arrays: dict,
        max_steps: int,
    ) -> _Env:
        return _Env(
            global_scalars,
            global_arrays,
            self.functions,
            len(self.slots),
            max_steps,
        )

    def call(self, env: _Env, function: str, args: list):
        cfunc = self.functions.get(function)
        if cfunc is None:
            raise KeyError(f"no function named {function!r}")
        return _run_function(env, cfunc, args)


# ----------------------------------------------------------------------
# Runtime support (referenced from generated code)
# ----------------------------------------------------------------------
_MISSING = object()


def _read_shadowed(s: dict, g: dict, name: str, function: str):
    """Local-scalar read where the name shadows a global (walker rule:
    frame first, then global storage, else error)."""
    value = s.get(name, _MISSING)
    if value is not _MISSING:
        return value
    value = g.get(name, _MISSING)
    if value is not _MISSING:
        return value
    raise RuntimeError(
        f"read of uninitialized variable {name!r} in {function!r}"
    )


def _read_temp(t: list, index: int, function: str):
    """Guarded temp read for temps not provably written earlier in the
    same block: keeps the walker's loud failure on malformed IR instead
    of silently treating an unwritten slot (None) as falsy."""
    value = t[index]
    if value is None:
        raise RuntimeError(
            f"read of undefined temp %t{index} in {function!r}"
        )
    return value


class _PassThroughKeyError(KeyError):
    """A ``KeyError`` (the walker's class for these conditions) that the
    driver's uninitialized-variable conversion must let through."""


class UnknownFunctionError(_PassThroughKeyError):
    """Unknown call target."""


class UnknownArrayError(_PassThroughKeyError):
    """Array name that is neither function-local nor global."""


def _unknown_array(name: str):
    raise UnknownArrayError(f"unknown array {name!r}")


def _fell_through(label: str, function: str):
    raise RuntimeError(
        f"block {label!r} in {function!r} fell through without a terminator"
    )


def _call(env: _Env, name: str, args: list):
    cfunc = env.functions.get(name)
    if cfunc is None:
        raise UnknownFunctionError(f"no function named {name!r}")
    return _run_function(env, cfunc, args)


def _bind_frame(cfunc: CompiledFunction, args: list):
    """Replicates ``Interpreter._make_frame`` (messages included)."""
    params = cfunc.params
    if len(args) != len(params):
        raise TypeError(
            f"{cfunc.name}() expects {len(params)} argument(s), "
            f"got {len(args)}"
        )
    scalars: dict = {}
    arrays: dict[str, ArrayStorage] = {}
    for spec, arg in zip(params, args, strict=True):
        if spec.is_array:
            assert isinstance(spec.var_type, ArrayType)
            if isinstance(arg, ArrayStorage):
                arrays[spec.name] = arg
            elif isinstance(arg, list):
                arrays[spec.name] = ArrayStorage.from_values(
                    spec.name, spec.var_type, arg
                )
            else:
                raise TypeError(
                    f"parameter {spec.name!r} expects an array, got "
                    f"{type(arg).__name__}"
                )
        else:
            if isinstance(arg, (ArrayStorage, list)):
                raise TypeError(
                    f"parameter {spec.name!r} expects a scalar, got an array"
                )
            scalars[spec.name] = coerce(arg, spec.element_type)
    for name, array_type in cfunc.local_arrays:
        arrays[name] = ArrayStorage.allocate(name, array_type)
    temps = [None] * cfunc.temp_count
    return temps, scalars, arrays


def _run_function(env: _Env, cfunc: CompiledFunction, args: list):
    """The compiled driver loop: one iteration per basic-block entry."""
    t, s, fa = _bind_frame(cfunc, args)
    counts = env.counts
    max_steps = env.max_steps
    block = cfunc.entry
    try:
        while block is not None:
            execute, n_steps, slot = block
            counts[slot] += 1
            steps = env.steps + n_steps
            if steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_steps} interpreted instructions"
                )
            env.steps = steps
            block = execute(env, t, s, fa)
    except _PassThroughKeyError:
        raise
    except KeyError as exc:
        # The only other KeyError generated code can raise on a verified
        # CDFG is a local-scalar read before any write (``s[name]``);
        # convert it to the walker's diagnostic.
        key = exc.args[0] if exc.args else None
        if isinstance(key, str):
            raise RuntimeError(
                f"read of uninitialized variable {key!r} in {cfunc.name!r}"
            ) from exc
        raise
    return env.ret


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
#: Pure value-op expression templates; ``{0}``/``{1}``/``{2}`` are fully
#: parenthesized operand expressions.  Semantics mirror ``evaluate_opcode``.
_PURE_TEMPLATES: dict[Opcode, str] = {
    Opcode.ADD: "({0} + {1})",
    Opcode.SUB: "({0} - {1})",
    Opcode.MUL: "({0} * {1})",
    Opcode.DIV: "_cdiv({0}, {1})",
    Opcode.MOD: "_cmod(int({0}), int({1}))",
    Opcode.SHL: "(int({0}) << int({1}))",
    Opcode.SHR: "(int({0}) >> int({1}))",
    Opcode.AND: "(int({0}) & int({1}))",
    Opcode.OR: "(int({0}) | int({1}))",
    Opcode.XOR: "(int({0}) ^ int({1}))",
    Opcode.NEG: "(-{0})",
    Opcode.BNOT: "(~int({0}))",
    Opcode.LNOT: "(0 if {0} else 1)",
    Opcode.LT: "(1 if {0} < {1} else 0)",
    Opcode.GT: "(1 if {0} > {1} else 0)",
    Opcode.LE: "(1 if {0} <= {1} else 0)",
    Opcode.GE: "(1 if {0} >= {1} else 0)",
    Opcode.EQ: "(1 if {0} == {1} else 0)",
    Opcode.NE: "(1 if {0} != {1} else 0)",
    Opcode.SELECT: "({1} if {0} else {2})",
    Opcode.ABS: "abs({0})",
    Opcode.MIN: "min({0}, {1})",
    Opcode.MAX: "max({0}, {1})",
    Opcode.SQRT: "_sqrt({0})",
    Opcode.SIN: "_sin({0})",
    Opcode.COS: "_cos({0})",
    Opcode.FLOOR: "float(_floor({0}))",
    Opcode.ROUND: "_round({0})",
    Opcode.I2F: "float({0})",
    Opcode.F2I: "int({0})",
    Opcode.COPY: "{0}",
}


class _FunctionCompiler:
    """Generates and links the block functions of one CFG."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        program: CompiledProgram,
        global_scalar_names: frozenset[str],
        global_array_names: frozenset[str],
    ) -> None:
        self.cfg = cfg
        self.program = program
        self.global_scalar_names = global_scalar_names
        self.global_array_names = global_array_names
        # Shared exec namespace: block functions resolve their successor
        # objects (``_blk_<label>``) through it at call time, which makes
        # forward references and loops link without a second pass, and
        # picks up each block's compiled tuple once its first entry ran.
        self.namespace: dict = {
            "_call": _call,
            "_cdiv": c_div,
            "_cmod": c_mod,
            "_round": c_round,
            "_sqrt": math.sqrt,
            "_sin": math.sin,
            "_cos": math.cos,
            "_floor": math.floor,
            "_coerce": coerce,
            "_Type": Type,
            "_eval": evaluate_opcode,
            "_Opcode": Opcode,
            "_shadowed": _read_shadowed,
            "_rt": _read_temp,
            "_unknown_array": _unknown_array,
            "_fell_through": _fell_through,
            "abs": abs,
            "min": min,
            "max": max,
            "int": int,
            "float": float,
        }
        # Per-block state, reset in _compile_block.
        self._lines: list[str] = []
        self._array_vars: dict[str, str] = {}
        self._needs_globals = False
        self._needs_global_arrays = False
        self._written_temps: set[int] = set()

    # -- frame metadata ------------------------------------------------
    def function_spec(self) -> CompiledFunction:
        cfg = self.cfg
        params = []
        for name in cfg.param_names:
            info = cfg.variables[name]
            params.append(
                _ParamSpec(name, info.is_array, info.var_type, info.element_type)
            )
        local_arrays = []
        for name, info in cfg.variables.items():
            if info.is_global or info.is_param:
                continue
            if info.is_array:
                assert isinstance(info.var_type, ArrayType)
                local_arrays.append((name, info.var_type))
        temp_count = 0
        for block in cfg.blocks.values():
            for ins in block.instructions:
                if isinstance(ins.dest, Temp):
                    temp_count = max(temp_count, ins.dest.index + 1)
                for operand in ins.operands:
                    if isinstance(operand, Temp):
                        temp_count = max(temp_count, operand.index + 1)
        return CompiledFunction(
            cfg.function_name, tuple(params), tuple(local_arrays), temp_count
        )

    # -- operand/expression emission -----------------------------------
    def _array_expr(self, name: str) -> str:
        """A hoisted local variable bound to the ArrayStorage for ``name``."""
        var = self._array_vars.get(name)
        if var is not None:
            return var
        info = self.cfg.variables.get(name)
        if info is not None and info.is_array and not info.is_global:
            source = f"fa[{name!r}]"
        elif (info is not None and info.is_global) or (
            name in self.global_array_names
        ):
            source = f"ga[{name!r}]"
            self._needs_global_arrays = True
        else:
            # The walker would only discover this at runtime; preserve
            # its KeyError lazily instead of failing the whole compile.
            source = f"_unknown_array({name!r})"
        var = f"_a{len(self._array_vars)}"
        self._array_vars[name] = var
        self._lines.append(f"    {var} = {source}")
        return var

    def _read_expr(self, operand) -> str:
        if isinstance(operand, Const):
            return f"({operand.value!r})"
        if isinstance(operand, Temp):
            if operand.index in self._written_temps:
                return f"t[{operand.index}]"
            # Not provably written earlier in this block (a cross-block
            # temp or malformed IR): guard the read so undefined temps
            # fail loudly like the walker's.
            return (
                f"_rt(t, {operand.index}, {self.cfg.function_name!r})"
            )
        if isinstance(operand, VarRef):
            name = operand.name
            info = self.cfg.variables.get(name)
            if info is not None and info.is_global:
                self._needs_globals = True
                return f"g[{name!r}]"
            if name in self.global_scalar_names:
                # Shadowing local: the walker falls back to the global
                # value on read-before-write; keep that via a helper.
                self._needs_globals = True
                return (
                    f"_shadowed(s, g, {name!r}, "
                    f"{self.cfg.function_name!r})"
                )
            return f"s[{name!r}]"
        raise CompileError(f"cannot read operand {operand!r}")

    def _emit_write(self, dest, expr: str, result_type: Type) -> None:
        if isinstance(dest, Temp):
            target = f"t[{dest.index}]"
            coerce_type = result_type
            self._written_temps.add(dest.index)
        elif isinstance(dest, VarRef):
            coerce_type = dest.vtype
            info = self.cfg.variables.get(dest.name)
            if info is not None and info.is_global:
                self._needs_globals = True
                target = f"g[{dest.name!r}]"
            else:
                target = f"s[{dest.name!r}]"
        else:
            raise CompileError(f"cannot write to {dest!r}")
        if coerce_type is Type.INT:
            self._lines.append(f"    {target} = int({expr})")
        elif coerce_type is Type.FLOAT:
            self._lines.append(f"    {target} = float({expr})")
        else:
            # coerce() raises the walker's TypeError for anything else.
            self._lines.append(
                f"    {target} = _coerce({expr}, _Type.{coerce_type.name})"
            )

    # -- instruction emission ------------------------------------------
    def _emit_instruction(self, ins: Instruction) -> None:
        opcode = ins.opcode
        if opcode is Opcode.BR:
            self._lines.append(f"    return _blk_{ins.targets[0]}")
            return
        if opcode is Opcode.CBR:
            cond = self._read_expr(ins.operands[0])
            self._lines.append(
                f"    return _blk_{ins.targets[0]} if {cond} "
                f"else _blk_{ins.targets[1]}"
            )
            return
        if opcode is Opcode.RET:
            if ins.operands:
                value = self._read_expr(ins.operands[0])
                return_type = self.cfg.return_type
                if return_type is Type.INT:
                    value = f"int({value})"
                elif return_type is Type.FLOAT:
                    value = f"float({value})"
                self._lines.append(f"    env.ret = {value}")
            else:
                self._lines.append("    env.ret = None")
            self._lines.append("    return None")
            return
        if opcode is Opcode.LOAD:
            base, index = ins.operands
            assert isinstance(base, ArrayBase)
            array = self._array_expr(base.name)
            index_expr = self._read_expr(index)
            self._emit_write(
                ins.dest, f"{array}.load(int({index_expr}))", ins.result_type
            )
            return
        if opcode is Opcode.STORE:
            base, index, value = ins.operands
            assert isinstance(base, ArrayBase)
            array = self._array_expr(base.name)
            index_expr = self._read_expr(index)
            value_expr = self._read_expr(value)
            self._lines.append(
                f"    {array}.store(int({index_expr}), {value_expr})"
            )
            return
        if opcode is Opcode.CALL:
            arg_exprs = []
            for operand in ins.operands:
                if isinstance(operand, ArrayBase):
                    arg_exprs.append(self._array_expr(operand.name))
                else:
                    arg_exprs.append(self._read_expr(operand))
            call = f"_call(env, {ins.callee or ''!r}, [{', '.join(arg_exprs)}])"
            if ins.dest is not None:
                self._lines.append(f"    _r = {call}")
                self._lines.append(
                    f"    assert _r is not None, "
                    f"{f'void call {ins.callee!r} used as a value'!r}"
                )
                self._emit_write(ins.dest, "_r", ins.result_type)
            else:
                self._lines.append(f"    {call}")
            return
        template = _PURE_TEMPLATES.get(opcode)
        if template is not None:
            args = [self._read_expr(op) for op in ins.operands]
            self._emit_write(ins.dest, template.format(*args), ins.result_type)
            return
        # Unknown value opcode: route through the shared evaluator so the
        # compiled path can never disagree with the walker.
        args = ", ".join(self._read_expr(op) for op in ins.operands)
        trailing = "," if len(ins.operands) == 1 else ""
        self._emit_write(
            ins.dest,
            f"_eval(_Opcode.{opcode.name}, ({args}{trailing}))",
            ins.result_type,
        )

    # -- block compilation ---------------------------------------------
    def _compile_block(self, cfunc: CompiledFunction, label: str) -> tuple:
        block = self.cfg.block(label)
        self._lines = []
        self._array_vars = {}
        self._needs_globals = False
        self._needs_global_arrays = False
        self._written_temps = set()

        for ins in block.instructions:
            self._emit_instruction(ins)
        if block.terminator is None:
            self._lines.append(
                f"    return _fell_through({label!r}, "
                f"{self.cfg.function_name!r})"
            )

        prelude = []
        if self._needs_globals:
            prelude.append("    g = env.globals")
        if self._needs_global_arrays:
            prelude.append("    ga = env.global_arrays")
        header = "def _block_fn(env, t, s, fa):"
        source = "\n".join([header, *prelude, *self._lines])

        slot = len(self.program.slots)
        n_steps = len(block.instructions)
        self.program.slots.append(
            BlockInfo(
                slot=slot,
                bb_id=block.bb_id,
                function=self.cfg.function_name,
                label=label,
                instruction_count=n_steps,
                memory_access_count=block.memory_access_count(),
            )
        )
        namespace = self.namespace
        filename = f"<compiled {self.cfg.function_name}/{label}>"
        is_entry = label == self.cfg.entry_label

        def first_entry(env, t, s, fa):
            # Compile on first entry, then rebind the block (and the
            # function entry) to the compiled tuple.  Two threads racing
            # here both compile equal code.
            scope: dict = {}
            exec(compile(source, filename, "exec"), namespace, scope)
            execute = scope["_block_fn"]
            compiled = (execute, n_steps, slot)
            namespace[f"_blk_{label}"] = compiled
            if is_entry:
                cfunc.entry = compiled
            return execute(env, t, s, fa)

        return (first_entry, n_steps, slot)

    def compile(self) -> CompiledFunction:
        cfunc = self.function_spec()
        order = self.cfg.reverse_post_order()
        for label in order:
            block_obj = self._compile_block(cfunc, label)
            self.namespace[f"_blk_{label}"] = block_obj
            if label == self.cfg.entry_label:
                cfunc.entry = block_obj
        if cfunc.entry is None:  # entry unreachable from RPO is impossible
            raise CompileError(
                f"function {self.cfg.function_name!r} has no entry block"
            )
        return cfunc


def _compile_program(cdfg: CDFG, fingerprint: str | None = None) -> CompiledProgram:
    program = CompiledProgram(fingerprint or cdfg_fingerprint(cdfg))
    global_scalars = frozenset(
        decl.name
        for decl in cdfg.program.globals
        if not isinstance(decl.decl_type, ArrayType)
    )
    global_arrays = frozenset(
        decl.name
        for decl in cdfg.program.globals
        if isinstance(decl.decl_type, ArrayType)
    )
    # Function declaration order matches CDFG bb_id assignment, so slots
    # come out in ascending bb_id order.
    for function in cdfg.program.functions:
        cfg = cdfg.cfgs[function.name]
        compiler = _FunctionCompiler(
            cfg, program, global_scalars, global_arrays
        )
        program.functions[cfg.function_name] = compiler.compile()
    return program


_COMPILED_ATTR = "_compiled_program_cache"


def compile_cdfg(
    cdfg: CDFG, force: bool = False, fingerprint: str | None = None
) -> CompiledProgram:
    """Compile (or fetch the cached compilation of) a whole CDFG.

    The compiled program is cached on the CDFG instance keyed by its
    content fingerprint, so mutating the IR transparently triggers a
    recompile while repeated ``Interpreter`` constructions stay cheap.
    ``fingerprint`` lets a caller that already hashed this exact CDFG
    state (e.g. the profile cache's key computation) skip re-hashing.

    Every block's Python source is generated here, from the CDFG state
    as it is now (a later mutation cannot leak into the program), and
    with the sanitizer on that state is verified first.  Each block's
    builtin ``compile()`` runs on its first entry, inside the run.
    """
    if fingerprint is None:
        fingerprint = cdfg_fingerprint(cdfg)
    cached: CompiledProgram | None = getattr(cdfg, _COMPILED_ATTR, None)
    if cached is not None and not force:
        if cached.fingerprint == fingerprint:
            return cached
    if sanitizer_enabled():
        # One static verification per compiled fingerprint: malformed IR
        # is rejected with block-level diagnostics before any code is
        # generated from it (the cache means this never runs twice for
        # the same CDFG content).
        assert_verified(cdfg, "block compiler")
    program = _compile_program(cdfg, fingerprint)
    setattr(cdfg, _COMPILED_ATTR, program)
    return program
