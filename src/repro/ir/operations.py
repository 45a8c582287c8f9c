"""Three-address intermediate representation operations.

The CDFG (paper §3, step 1) is built from a conventional three-address code:
each basic block holds a list of :class:`Instruction` whose operands are
virtual registers (:class:`Temp`), named variables (:class:`VarRef`) or
constants (:class:`Const`).

Every opcode is classified into a hardware *operator class* so that the
static analysis (§3.1) can apply the paper's weight model (ALU weight 1,
multiplier weight 2) and so the mappers know which functional unit executes
the operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..frontend.ast_nodes import Type
from ..frontend.errors import SourceLocation, UNKNOWN_LOCATION


class OpClass(enum.Enum):
    """Hardware operator class used for weights, area and scheduling."""

    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__
    ALU = "alu"          # add/sub/logic/shift/compare — weight 1
    MUL = "mul"          # multiply — weight 2
    DIV = "div"          # divide/modulo — weight 4 (absent from paper DFGs)
    MEM = "mem"          # shared-memory load/store
    MOVE = "move"        # copies and constants (wires/registers)
    CONTROL = "control"  # branches, returns
    CALL = "call"        # function invocation


class Opcode(enum.Enum):
    """Every operation the lowering can emit."""

    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__

    # Arithmetic / logic (value-producing)
    ADD = ("add", OpClass.ALU)
    SUB = ("sub", OpClass.ALU)
    MUL = ("mul", OpClass.MUL)
    DIV = ("div", OpClass.DIV)
    MOD = ("mod", OpClass.DIV)
    SHL = ("shl", OpClass.ALU)
    SHR = ("shr", OpClass.ALU)
    AND = ("and", OpClass.ALU)
    OR = ("or", OpClass.ALU)
    XOR = ("xor", OpClass.ALU)
    NEG = ("neg", OpClass.ALU)
    BNOT = ("bnot", OpClass.ALU)
    LNOT = ("lnot", OpClass.ALU)
    LT = ("lt", OpClass.ALU)
    GT = ("gt", OpClass.ALU)
    LE = ("le", OpClass.ALU)
    GE = ("ge", OpClass.ALU)
    EQ = ("eq", OpClass.ALU)
    NE = ("ne", OpClass.ALU)
    SELECT = ("select", OpClass.ALU)  # dest = cond ? a : b
    ABS = ("abs", OpClass.ALU)
    MIN = ("min", OpClass.ALU)
    MAX = ("max", OpClass.ALU)
    SQRT = ("sqrt", OpClass.DIV)
    SIN = ("sin", OpClass.DIV)
    COS = ("cos", OpClass.DIV)
    FLOOR = ("floor", OpClass.ALU)
    ROUND = ("round", OpClass.ALU)
    I2F = ("i2f", OpClass.ALU)
    F2I = ("f2i", OpClass.ALU)

    # Data movement
    COPY = ("copy", OpClass.MOVE)
    CONST = ("const", OpClass.MOVE)

    # Memory
    LOAD = ("load", OpClass.MEM)    # dest = base[index]
    STORE = ("store", OpClass.MEM)  # base[index] = value

    # Control
    BR = ("br", OpClass.CONTROL)    # unconditional jump
    CBR = ("cbr", OpClass.CONTROL)  # conditional jump (cond, then, else)
    RET = ("ret", OpClass.CONTROL)
    CALL = ("call", OpClass.CALL)

    def __init__(self, mnemonic: str, op_class: OpClass) -> None:
        self.mnemonic = mnemonic
        self.op_class = op_class
        self.is_control = op_class is OpClass.CONTROL
        self.is_memory = op_class is OpClass.MEM


#: AST binary operator -> opcode used by the lowering pass.
BINARY_OPCODES = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
    "<": Opcode.LT,
    ">": Opcode.GT,
    "<=": Opcode.LE,
    ">=": Opcode.GE,
    "==": Opcode.EQ,
    "!=": Opcode.NE,
}

#: Intrinsic name -> opcode.
INTRINSIC_OPCODES = {
    "abs": Opcode.ABS,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "sqrt": Opcode.SQRT,
    "sin": Opcode.SIN,
    "cos": Opcode.COS,
    "floor": Opcode.FLOOR,
    "round": Opcode.ROUND,
    "__cast_int": Opcode.F2I,
    "__cast_float": Opcode.I2F,
}


# ----------------------------------------------------------------------
# Operands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Temp:
    """A virtual register produced by exactly one instruction per block."""

    index: int
    vtype: Type = Type.INT

    def __str__(self) -> str:
        return f"%t{self.index}"


@dataclass(frozen=True)
class VarRef:
    """A named scalar variable (local, parameter or global)."""

    name: str
    vtype: Type = Type.INT

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayBase:
    """A named array used as the base operand of LOAD/STORE.

    ``local`` marks function-local scratch buffers: they live in the
    executing fabric's local storage (FPGA BRAM / CGC register bank) and
    are accessed at full fabric speed, unlike globals which live in the
    platform's shared data memory (Figure 1).
    """

    name: str
    element_type: Type = Type.INT
    local: bool = False

    def __str__(self) -> str:
        prefix = "%" if self.local else "@"
        return f"{prefix}{self.name}"


@dataclass(frozen=True)
class Const:
    """An immediate constant."""

    value: int | float

    def __str__(self) -> str:
        return f"#{self.value}"

    @property
    def vtype(self) -> Type:
        return Type.FLOAT if isinstance(self.value, float) else Type.INT


Operand = Temp | VarRef | ArrayBase | Const
Value = Temp | VarRef | Const


# ----------------------------------------------------------------------
# Instruction
# ----------------------------------------------------------------------
@dataclass
class Instruction:
    """One three-address operation.

    Field usage by opcode family:

    * value ops — ``dest`` is a Temp/VarRef, ``operands`` are the inputs;
    * ``LOAD`` — operands = (ArrayBase, index value);
    * ``STORE`` — operands = (ArrayBase, index value, stored value), no dest;
    * ``BR`` — ``targets = (label,)``;
    * ``CBR`` — operands = (condition,), ``targets = (then, else)``;
    * ``RET`` — operands = () or (value,);
    * ``CALL`` — ``callee`` set, operands are the arguments, dest optional.
    """

    opcode: Opcode
    dest: Temp | VarRef | None = None
    operands: tuple[Operand, ...] = ()
    targets: tuple[str, ...] = ()
    callee: str | None = None
    result_type: Type = Type.INT
    location: SourceLocation = field(default=UNKNOWN_LOCATION)

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    def uses(self) -> tuple[Operand, ...]:
        """Operands read by this instruction (includes array bases)."""
        return self.operands

    def __str__(self) -> str:
        parts = [self.opcode.mnemonic]
        if self.callee:
            parts.append(self.callee)
        if self.dest is not None:
            prefix = f"{self.dest} = "
        else:
            prefix = ""
        operand_text = ", ".join(str(op) for op in self.operands)
        target_text = ", ".join(f"->{t}" for t in self.targets)
        body = " ".join(p for p in (operand_text, target_text) if p)
        return f"{prefix}{' '.join(parts)} {body}".rstrip()


class TempFactory:
    """Allocates fresh virtual registers for one function's lowering."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, vtype: Type = Type.INT) -> Temp:
        temp = Temp(self._next, vtype)
        self._next += 1
        return temp

    @property
    def count(self) -> int:
        return self._next
