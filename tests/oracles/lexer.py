"""Reference mini-C scanner: one character at a time.

The production lexer (:mod:`repro.frontend.lexer`) matches one master
regex; this walk peeks and advances a character at a time, tracking line
and column as it goes.  It builds the same ``Token``/``SourceLocation``
records, so the two token lists (and ``LexerError`` messages and
locations) compare directly.
"""

from __future__ import annotations

from repro.frontend.errors import LexerError, SourceLocation
from repro.frontend.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_TOKENS,
    Token,
    TokenKind,
)

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_HEX_DIGITS = _DIGITS | set("abcdefABCDEF")


class Lexer:
    """Streaming scanner over one source buffer.

    Usage::

        tokens = Lexer(source, filename="ofdm.c").tokenize()
    """

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # ------------------------------------------------------------------
    # Character-level helpers
    # ------------------------------------------------------------------
    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    # ------------------------------------------------------------------
    # Trivia
    # ------------------------------------------------------------------
    def _skip_trivia(self) -> None:
        """Skip whitespace plus // line and /* block */ comments."""
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._at_end():
                        raise LexerError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            else:
                return

    # ------------------------------------------------------------------
    # Token scanners
    # ------------------------------------------------------------------
    def _scan_identifier(self) -> Token:
        start = self._location()
        begin = self.pos
        while not self._at_end() and self._peek() in _IDENT_CONT:
            self._advance()
        text = self.source[begin : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        value = text if kind is TokenKind.IDENT else None
        return Token(kind, text, start, value)

    def _scan_number(self) -> Token:
        start = self._location()
        begin = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if self._peek() not in _HEX_DIGITS:
                raise LexerError("malformed hexadecimal literal", start)
            while self._peek() in _HEX_DIGITS:
                self._advance()
            text = self.source[begin : self.pos]
            return Token(TokenKind.INT_LITERAL, text, start, int(text, 16))

        is_float = False
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in _DIGITS:
            is_float = True
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1) in _DIGITS
            or (self._peek(1) in "+-" and self._peek(2) in _DIGITS)
        ):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() == "f" and is_float:
            # Accept (and discard) a C float suffix.
            text = self.source[begin : self.pos]
            self._advance()
            return Token(TokenKind.FLOAT_LITERAL, text + "f", start, float(text))

        text = self.source[begin : self.pos]
        if is_float:
            return Token(TokenKind.FLOAT_LITERAL, text, start, float(text))
        return Token(TokenKind.INT_LITERAL, text, start, int(text, 10))

    def _scan_operator(self) -> Token:
        start = self._location()
        for spelling, kind in MULTI_CHAR_OPERATORS:
            if self.source.startswith(spelling, self.pos):
                self._advance(len(spelling))
                return Token(kind, spelling, start)
        char = self._peek()
        kind = SINGLE_CHAR_TOKENS.get(char)
        if kind is None:
            raise LexerError(f"unexpected character {char!r}", start)
        self._advance()
        return Token(kind, char, start)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def next_token(self) -> Token:
        """Return the next token, producing a final EOF token at the end."""
        self._skip_trivia()
        if self._at_end():
            return Token(TokenKind.EOF, "", self._location())
        char = self._peek()
        if char in _IDENT_START:
            return self._scan_identifier()
        if char in _DIGITS:
            return self._scan_number()
        if char == "." and self._peek(1) in _DIGITS:
            return self._scan_number()
        return self._scan_operator()

    def tokenize(self) -> list[Token]:
        """Scan the whole buffer and return the tokens ending with EOF."""
        tokens: list[Token] = []
        while True:
            token = self.next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source, filename).tokenize()
