"""Token definitions for the mini-C language accepted by the frontend.

The language is the C subset the paper's applications need: scalar and array
``int``/``float`` variables, arithmetic and bitwise expressions, ``for`` /
``while`` / ``do-while`` loops, ``if``/``else`` conditionals, and functions.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Every terminal the lexer can produce."""

    # Members compare by identity, so hashing by identity (in C) agrees.
    __hash__ = object.__hash__

    # Literals and identifiers
    IDENT = "identifier"
    INT_LITERAL = "int literal"
    FLOAT_LITERAL = "float literal"

    # Keywords
    KW_INT = "int"
    KW_FLOAT = "float"
    KW_VOID = "void"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_FOR = "for"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_CONST = "const"

    # Punctuation
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"

    # Operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    NOT = "!"
    ANDAND = "&&"
    OROR = "||"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    PLUSPLUS = "++"
    MINUSMINUS = "--"
    QUESTION = "?"
    COLON = ":"

    EOF = "<eof>"


#: Reserved words mapped to their keyword token kinds.
KEYWORDS: dict[str, TokenKind] = {
    "int": TokenKind.KW_INT,
    "float": TokenKind.KW_FLOAT,
    "void": TokenKind.KW_VOID,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "const": TokenKind.KW_CONST,
}

#: Multi-character operators ordered longest-first, so probing them in
#: order gives maximal munch.
MULTI_CHAR_OPERATORS: list[tuple[str, TokenKind]] = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.ANDAND),
    ("||", TokenKind.OROR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("++", TokenKind.PLUSPLUS),
    ("--", TokenKind.MINUSMINUS),
]

#: Single-character operators / punctuation.
SINGLE_CHAR_TOKENS: dict[str, TokenKind] = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "~": TokenKind.TILDE,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
    "=": TokenKind.ASSIGN,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
}

#: Compound-assignment token -> underlying binary operator token.
COMPOUND_ASSIGN_BASE: dict[TokenKind, TokenKind] = {
    TokenKind.PLUS_ASSIGN: TokenKind.PLUS,
    TokenKind.MINUS_ASSIGN: TokenKind.MINUS,
    TokenKind.STAR_ASSIGN: TokenKind.STAR,
    TokenKind.SLASH_ASSIGN: TokenKind.SLASH,
    TokenKind.PERCENT_ASSIGN: TokenKind.PERCENT,
    TokenKind.SHL_ASSIGN: TokenKind.SHL,
    TokenKind.SHR_ASSIGN: TokenKind.SHR,
    TokenKind.AMP_ASSIGN: TokenKind.AMP,
    TokenKind.PIPE_ASSIGN: TokenKind.PIPE,
    TokenKind.CARET_ASSIGN: TokenKind.CARET,
}


class Token(NamedTuple):
    """A single lexeme with its source position.

    ``value`` carries the decoded payload: the identifier string or the
    ``int``/``float`` literal value (``None`` for keywords, operators
    and EOF).  A tuple record, like :class:`SourceLocation`.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    value: object = None

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.location}"
