"""Lexer unit tests, plus differential tests against the oracle walk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_tokenize
from repro.frontend import Lexer, LexerError, SourceLocation, tokenize
from repro.frontend.tokens import (
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_TOKENS,
    Token,
    TokenKind,
)
from repro.workloads import jpeg_source, ofdm_source
from repro.workloads.synthetic import synthetic_program_source


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]  # drop EOF


def scan(lex, source):
    """The token list, or the LexerError's (message, location)."""
    try:
        return lex(source)
    except LexerError as error:
        return error.message, error.location


class TestLiterals:
    def test_decimal_int(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT_LITERAL
        assert token.value == 42

    def test_zero(self):
        assert tokenize("0")[0].value == 0

    def test_hex_literal(self):
        token = tokenize("0x1F")[0]
        assert token.kind is TokenKind.INT_LITERAL
        assert token.value == 31

    def test_hex_uppercase_prefix(self):
        assert tokenize("0XFF")[0].value == 255

    def test_malformed_hex_raises(self):
        with pytest.raises(LexerError):
            tokenize("0x")

    def test_float_literal(self):
        token = tokenize("3.5")[0]
        assert token.kind is TokenKind.FLOAT_LITERAL
        assert token.value == 3.5

    def test_float_with_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0

    def test_float_with_signed_exponent(self):
        assert tokenize("2.5e-2")[0].value == 0.025

    def test_float_f_suffix(self):
        token = tokenize("1.5f")[0]
        assert token.kind is TokenKind.FLOAT_LITERAL
        assert token.value == 1.5

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.kind is TokenKind.FLOAT_LITERAL
        assert token.value == 0.5

    def test_int_then_member_like_dot_is_error(self):
        with pytest.raises(LexerError):
            tokenize("a . b".replace(" ", ""))


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        token = tokenize("counter_1")[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "counter_1"

    def test_underscore_start(self):
        assert tokenize("_tmp")[0].value == "_tmp"

    @pytest.mark.parametrize(
        "keyword,kind",
        [
            ("int", TokenKind.KW_INT),
            ("float", TokenKind.KW_FLOAT),
            ("void", TokenKind.KW_VOID),
            ("if", TokenKind.KW_IF),
            ("else", TokenKind.KW_ELSE),
            ("for", TokenKind.KW_FOR),
            ("while", TokenKind.KW_WHILE),
            ("do", TokenKind.KW_DO),
            ("return", TokenKind.KW_RETURN),
            ("break", TokenKind.KW_BREAK),
            ("continue", TokenKind.KW_CONTINUE),
            ("const", TokenKind.KW_CONST),
        ],
    )
    def test_keywords(self, keyword, kind):
        assert tokenize(keyword)[0].kind is kind

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("interval")[0].kind is TokenKind.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<<", TokenKind.SHL),
            (">>", TokenKind.SHR),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.ANDAND),
            ("||", TokenKind.OROR),
            ("+=", TokenKind.PLUS_ASSIGN),
            ("<<=", TokenKind.SHL_ASSIGN),
            ("++", TokenKind.PLUSPLUS),
            ("--", TokenKind.MINUSMINUS),
        ],
    )
    def test_multichar(self, text, kind):
        assert tokenize(text)[0].kind is kind

    def test_maximal_munch(self):
        # ">>=" must lex as one token, not ">>" "=".
        assert kinds("a >>= 1") == [
            TokenKind.IDENT,
            TokenKind.SHR_ASSIGN,
            TokenKind.INT_LITERAL,
        ]

    def test_adjacent_lt(self):
        assert kinds("a<b") == [
            TokenKind.IDENT,
            TokenKind.LT,
            TokenKind.IDENT,
        ]

    def test_unknown_character(self):
        with pytest.raises(LexerError):
            tokenize("a $ b")


class TestTriviaAndPositions:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* never closed")

    def test_line_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_recorded(self):
        token = tokenize("x", filename="app.c")[0]
        assert token.location.filename == "app.c"

    def test_eof_always_last(self):
        assert tokenize("")[-1].kind is TokenKind.EOF
        assert tokenize("a b c")[-1].kind is TokenKind.EOF

    def test_streaming_interface(self):
        lexer = Lexer("x + 1")
        seen = []
        while True:
            token = lexer.next_token()
            seen.append(token.kind)
            if token.kind is TokenKind.EOF:
                break
        assert seen == [
            TokenKind.IDENT,
            TokenKind.PLUS,
            TokenKind.INT_LITERAL,
            TokenKind.EOF,
        ]


def located(tokens):
    return [(t.kind, t.text, t.location.line, t.location.column, t.value)
            for t in tokens]


class TestEdgeCases:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("1.5e", [(TokenKind.FLOAT_LITERAL, "1.5", 1, 1, 1.5),
                      (TokenKind.IDENT, "e", 1, 4, "e"),
                      (TokenKind.EOF, "", 1, 5, None)]),
            ("1f", [(TokenKind.INT_LITERAL, "1", 1, 1, 1),
                    (TokenKind.IDENT, "f", 1, 2, "f"),
                    (TokenKind.EOF, "", 1, 3, None)]),
            ("1.e5", ("unexpected character '.'",
                      SourceLocation(1, 2, "<source>"))),
            ("x\n// no newline", [(TokenKind.IDENT, "x", 1, 1, "x"),
                                  (TokenKind.EOF, "", 2, 14, None)]),
        ],
        ids=["float-then-ident", "int-then-ident", "dot-exponent-error",
             "comment-at-eof"],
    )
    def test_edge_case(self, source, expected):
        result = scan(tokenize, source)
        if isinstance(result, list):
            result = located(result)
        assert result == expected
        assert scan(oracle_tokenize, source) == scan(tokenize, source)

    def test_records_are_tuples(self):
        token = tokenize("x", filename="a.c")[0]
        assert isinstance(token, Token)
        assert token == (TokenKind.IDENT, "x", (1, 1, "a.c"), "x")
        assert str(token) == "IDENT('x')@a.c:1:1"
        assert SourceLocation(1, 9) < SourceLocation(2, 1)
        assert hash(token.location) == hash((1, 1, "a.c"))

    def test_next_token_keeps_returning_eof(self):
        lexer = Lexer("x")
        assert lexer.next_token().kind is TokenKind.IDENT
        assert lexer.next_token().kind is TokenKind.EOF
        assert lexer.next_token().kind is TokenKind.EOF
        assert [t.kind for t in lexer.tokenize()] == [TokenKind.EOF]


class TestOracle:
    """The master-regex lexer against the character walk it replaced."""

    @pytest.mark.parametrize(
        "source",
        [
            jpeg_source(),
            ofdm_source(),
            *(synthetic_program_source(seed, 2 + seed % 7, 2 + seed % 5)
              for seed in range(50)),
        ],
        ids=["jpeg", "ofdm", *(f"minic-{seed}" for seed in range(50))],
    )
    def test_programs_lex_identically(self, source):
        tokens = tokenize(source, "app.c")
        assert tokens == oracle_tokenize(source, "app.c")
        assert tokens[-1].kind is TokenKind.EOF

    _FRAGMENTS = sorted(
        {spelling for spelling, _ in MULTI_CHAR_OPERATORS}
        | set(SINGLE_CHAR_TOKENS)
        | {
            "x", "_a1", "int", "for", "e", "E", "f", "0", "7", "42", "0x",
            "0X1f", "1e", "e+", "-3", ".", "$", "é", " ", "\t", "\n", "\r\n",
            "// c", "/* c */", "/*", "*/", "/* a\nb */",
        }
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
    def test_strings_lex_identically(self, source):
        assert scan(tokenize, source) == scan(oracle_tokenize, source)
