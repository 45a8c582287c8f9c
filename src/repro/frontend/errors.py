"""Source-located diagnostics for the mini-C frontend.

The paper's toolchain used SUIF2/MachineSUIF for compilation and Lex for
analysis; our from-scratch frontend needs its own diagnostic machinery so
that malformed application sources fail with actionable messages instead of
stack traces deep inside the lowering passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A (line, column) position inside a named source buffer.

    Lines and columns are 1-based, matching what editors display.  A
    plain tuple record: the lexer builds one per token, so it must be
    cheap; it orders, hashes and compares as ``(line, column, filename)``.
    """

    line: int = 1
    column: int = 1
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized nodes with no source counterpart.
UNKNOWN_LOCATION = SourceLocation(0, 0, "<synthetic>")


class FrontendError(Exception):
    """Base class for every error raised by the mini-C frontend."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or UNKNOWN_LOCATION
        super().__init__(f"{self.location}: {message}")


class LexerError(FrontendError):
    """Raised for malformed tokens (bad characters, unterminated comments)."""


class ParserError(FrontendError):
    """Raised when the token stream does not match the mini-C grammar."""


class SemanticError(FrontendError):
    """Raised for type errors, undeclared names and other semantic faults."""


@dataclass
class Diagnostic:
    """A non-fatal finding collected while checking a program."""

    severity: str  # "error" | "warning"
    message: str
    location: SourceLocation = UNKNOWN_LOCATION

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}: {self.message}"


@dataclass
class DiagnosticBag:
    """Accumulates diagnostics so semantic analysis can report them in bulk.

    Fatal errors still raise :class:`SemanticError`; warnings (e.g. an unused
    variable) accumulate here and never abort compilation.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, location: SourceLocation = UNKNOWN_LOCATION) -> None:
        self.diagnostics.append(Diagnostic("error", message, location))

    def warning(self, message: str, location: SourceLocation = UNKNOWN_LOCATION) -> None:
        self.diagnostics.append(Diagnostic("warning", message, location))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def has_errors(self) -> bool:
        return bool(self.errors)

    def raise_if_errors(self) -> None:
        """Raise a :class:`SemanticError` summarizing all collected errors."""
        if not self.has_errors():
            return
        first = self.errors[0]
        summary = "; ".join(str(d) for d in self.errors)
        raise SemanticError(
            f"{len(self.errors)} semantic error(s): {summary}", first.location
        )
