"""Typed AST for the mini-C language.

Every node carries a :class:`~repro.frontend.errors.SourceLocation` so the
analysis stage (paper §3.1) can attribute weights and profiling counters
back to concrete source constructs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import SourceLocation, UNKNOWN_LOCATION


class Type(enum.Enum):
    """Scalar element types supported by the language."""

    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__
    INT = "int"
    FLOAT = "float"
    VOID = "void"

    def is_numeric(self) -> bool:
        return self in (Type.INT, Type.FLOAT)


def unify_numeric(left: Type, right: Type) -> Type:
    """Usual arithmetic conversion: float wins over int."""
    if Type.FLOAT in (left, right):
        return Type.FLOAT
    return Type.INT


@dataclass(frozen=True)
class ArrayType:
    """A fixed-size one- or two-dimensional array of a scalar element type."""

    element: Type
    dimensions: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("array type requires at least one dimension")
        if any(d <= 0 for d in self.dimensions):
            raise ValueError("array dimensions must be positive")

    @property
    def size(self) -> int:
        total = 1
        for dim in self.dimensions:
            total *= dim
        return total

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dimensions)
        return f"{self.element.value}{dims}"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Expr:
    """Base class for expressions. ``ctype`` is filled by semantic analysis."""

    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)
    ctype: Type | None = field(default=None, kw_only=True)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0


@dataclass
class NameRef(Expr):
    """A reference to a scalar variable or to an array (in index position)."""

    name: str = ""


@dataclass
class ArrayRef(Expr):
    """``base[i]`` or ``base[i][j]`` — always a *flat* load target after
    semantic analysis linearizes multi-dimensional indices."""

    name: str = ""
    indices: list[Expr] = field(default_factory=list)


class BinaryOp(enum.Enum):
    """Binary operators, annotated with the hardware operator class used by
    the static analysis weight model (ALU vs MUL vs DIV)."""

    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    SHL = "<<"
    SHR = ">>"
    AND = "&"
    OR = "|"
    XOR = "^"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    LAND = "&&"
    LOR = "||"


class UnaryOp(enum.Enum):
    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__
    NEG = "-"
    NOT = "!"
    BNOT = "~"
    POS = "+"


@dataclass
class BinaryExpr(Expr):
    op: BinaryOp = BinaryOp.ADD
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnaryExpr(Expr):
    op: UnaryOp = UnaryOp.NEG
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class CallExpr(Expr):
    callee: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class ConditionalExpr(Expr):
    """The C ternary ``cond ? then : otherwise``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class Stmt:
    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass
class DeclStmt(Stmt):
    """``int x = e;`` / ``float a[64];`` — one declarator per statement."""

    name: str = ""
    decl_type: Type | ArrayType = Type.INT
    init: Expr | None = None
    is_const: bool = False


@dataclass
class AssignStmt(Stmt):
    """``target = value;`` where target is a NameRef or ArrayRef."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for side effects (e.g. a call)."""

    expr: Expr = None  # type: ignore[assignment]


@dataclass
class BlockStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Stmt | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class ForStmt(Stmt):
    """C-style for. ``init`` may be a declaration or assignment; ``step``
    is a statement (assignment) executed after each iteration."""

    init: Stmt | None = None
    cond: Expr | None = None
    step: Stmt | None = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass
class Param:
    name: str
    param_type: Type | ArrayType
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class FunctionDecl:
    name: str
    return_type: Type
    params: list[Param]
    body: BlockStmt
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class GlobalDecl:
    """A file-scope variable, optionally const with a literal initializer
    list (used for tables such as quantization matrices or twiddle factors).
    """

    name: str
    decl_type: Type | ArrayType
    init_values: list[float | int] | None = None
    is_const: bool = False
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class Program:
    """A translation unit: globals plus functions, in declaration order."""

    functions: list[FunctionDecl] = field(default_factory=list)
    globals: list[GlobalDecl] = field(default_factory=list)
    filename: str = "<source>"

    def function(self, name: str) -> FunctionDecl:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    @property
    def function_names(self) -> list[str]:
        return [fn.name for fn in self.functions]


# ----------------------------------------------------------------------
# AST utilities
# ----------------------------------------------------------------------
def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, BinaryExpr):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryExpr):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ArrayRef):
        for index in expr.indices:
            yield from walk_expr(index)
    elif isinstance(expr, CallExpr):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, ConditionalExpr):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.otherwise)


def walk_stmt(stmt: Stmt):
    """Yield ``stmt`` and every nested statement, pre-order."""
    yield stmt
    if isinstance(stmt, BlockStmt):
        for child in stmt.body:
            yield from walk_stmt(child)
    elif isinstance(stmt, IfStmt):
        yield from walk_stmt(stmt.then)
        if stmt.otherwise is not None:
            yield from walk_stmt(stmt.otherwise)
    elif isinstance(stmt, WhileStmt):
        yield from walk_stmt(stmt.body)
    elif isinstance(stmt, DoWhileStmt):
        yield from walk_stmt(stmt.body)
    elif isinstance(stmt, ForStmt):
        if stmt.init is not None:
            yield from walk_stmt(stmt.init)
        if stmt.step is not None:
            yield from walk_stmt(stmt.step)
        yield from walk_stmt(stmt.body)
