"""Master-regex scanner for the mini-C language.

This plays the role of Lex in the paper's toolchain (§3.1): it turns
application source text into a token stream, tracking exact source
locations so later phases can report where analysis results came from.

One compiled pattern, tried at each position, has a named alternative
per lexeme class.  The alternatives are ordered so the first that
matches is the one a maximal-munch scanner would pick: hex before
decimal, floats before ints, operators longest-first.  A final
one-character alternative catches everything else, so consecutive
matches tile the whole buffer and the scan is a single ``finditer``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import LexerError, SourceLocation
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_TOKENS,
    Token,
    TokenKind,
)

_OPERATORS: dict[str, TokenKind] = {
    **dict(MULTI_CHAR_OPERATORS),
    **SINGLE_CHAR_TOKENS,
}

_MASTER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("skip", r"[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/"),
            ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("open_comment", r"/\*"),
            ("op", "|".join(
                re.escape(spelling)
                for spelling in sorted(_OPERATORS, key=len, reverse=True)
            )),
            ("hex", r"0[xX][0-9a-fA-F]+"),
            ("bad_hex", r"0[xX]"),
            # A C float suffix is accepted (and discarded) on floats only.
            ("float", r"(?:[0-9]*\.[0-9]+(?:[eE][+-]?[0-9]+)?"
                      r"|[0-9]+[eE][+-]?[0-9]+)f?"),
            ("int", r"[0-9]+"),
            ("other", r"(?s:.)"),
        )
    )
)


class Lexer:
    """Streaming scanner over one source buffer.

    Usage::

        tokens = Lexer(source, filename="ofdm.c").tokenize()
    """

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        last_line_start = source.rfind("\n") + 1
        self._eof = Token(
            TokenKind.EOF,
            "",
            SourceLocation(
                source.count("\n") + 1, len(source) - last_line_start + 1, filename
            ),
        )
        self._tokens = self._scan()

    def _scan(self) -> Iterator[Token]:
        """Every token of the buffer but EOF.  A :class:`LexerError` is
        raised when the scan reaches the bad lexeme, and ends the scan."""
        source = self.source
        filename = self.filename
        line = 1
        line_start = 0  # offset of the first character of ``line``
        for match in _MASTER.finditer(source):
            group = match.lastgroup
            start = match.start()
            if group == "skip":
                end = match.end()
                newlines = source.count("\n", start, end)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", start, end) + 1
                continue
            location = SourceLocation(line, start - line_start + 1, filename)
            text = match.group()
            if group == "ident":
                kind = KEYWORDS.get(text)
                if kind is None:
                    yield Token(TokenKind.IDENT, text, location, text)
                else:
                    yield Token(kind, text, location)
            elif group == "op":
                yield Token(_OPERATORS[text], text, location)
            elif group == "int":
                yield Token(TokenKind.INT_LITERAL, text, location, int(text, 10))
            elif group == "float":
                value = float(text[:-1] if text[-1] == "f" else text)
                yield Token(TokenKind.FLOAT_LITERAL, text, location, value)
            elif group == "hex":
                yield Token(TokenKind.INT_LITERAL, text, location, int(text, 16))
            elif group == "bad_hex":
                raise LexerError("malformed hexadecimal literal", location)
            elif group == "open_comment":
                raise LexerError("unterminated block comment", location)
            else:
                raise LexerError(f"unexpected character {text!r}", location)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def next_token(self) -> Token:
        """Return the next token, producing a final EOF token at the end."""
        return next(self._tokens, self._eof)

    def tokenize(self) -> list[Token]:
        """Scan the rest of the buffer and return the tokens ending with EOF."""
        return [*self._tokens, self._eof]


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source, filename).tokenize()
