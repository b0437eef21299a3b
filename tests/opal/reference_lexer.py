"""The per-character OPAL lexer as it stood at commit 77dc231, frozen.

Test-only: ``tests/opal/test_lexer_differential.py`` holds the scanner
in ``repro.opal.lexer`` to this one, token for token and error for
error.  Do not improve it.

Smalltalk-80 lexical rules: double-quoted comments are whitespace,
single-quoted strings double their quotes to escape, ``$x`` is a
character, ``#`` introduces symbols and literal arrays, identifiers
followed immediately by ``:`` are keywords.  OPAL adds ``!`` and ``@``
as path tokens (never part of binary selectors).
"""

from __future__ import annotations

from repro.errors import LexError
from repro.opal.tokens import BINARY_CHARS, Token, TokenType


def _is_digit(char: str) -> bool:
    """ASCII digits only: Unicode digit-likes are not OPAL numerals."""
    return "0" <= char <= "9"


class Lexer:
    """Streams tokens from OPAL source text."""

    #: token types after which `-` is subtraction, not a numeric sign
    _OPERAND_ENDS = frozenset(
        {
            TokenType.IDENTIFIER,
            TokenType.INTEGER,
            TokenType.FLOAT,
            TokenType.STRING,
            TokenType.CHARACTER,
            TokenType.SYMBOL,
            TokenType.RPAREN,
            TokenType.RBRACKET,
        }
    )

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1
        self._prev_type: TokenType | None = None

    def tokens(self) -> list[Token]:
        """Lex the whole source; the final token is always END."""
        result = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.type is TokenType.END:
                return result

    # -- internals --------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self) -> str:
        char = self.source[self.pos]
        self.pos += 1
        if char == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return char

    def _skip_blank(self) -> None:
        while self.pos < len(self.source):
            char = self._peek()
            if char.isspace():
                self._advance()
            elif char == '"':  # comment
                self._advance()
                while True:
                    if self.pos >= len(self.source):
                        raise LexError("unterminated comment", self.line, self.column)
                    if self._advance() == '"':
                        break
            else:
                return

    def next_token(self) -> Token:
        """Lex one token."""
        token = self._lex_token()
        self._prev_type = token.type
        return token

    def _lex_token(self) -> Token:
        self._skip_blank()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return Token(TokenType.END, None, line, column)
        char = self._peek()

        if char.isalpha() or char == "_":
            return self._identifier_or_keyword(line, column)
        if _is_digit(char):
            return self._number(line, column)
        if char == "'":
            return Token(TokenType.STRING, self._string_body(), line, column)
        if char == "$":
            self._advance()
            if self.pos >= len(self.source):
                raise LexError("character literal at end of input", line, column)
            return Token(TokenType.CHARACTER, self._advance(), line, column)
        if char == "#":
            return self._hash(line, column)

        simple = {
            "(": TokenType.LPAREN, ")": TokenType.RPAREN,
            "[": TokenType.LBRACKET, "]": TokenType.RBRACKET,
            ";": TokenType.SEMICOLON, ".": TokenType.PERIOD,
            "^": TokenType.CARET, "!": TokenType.BANG, "@": TokenType.AT,
        }
        if char in simple:
            self._advance()
            return Token(simple[char], char, line, column)

        if char == ":":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenType.ASSIGN, ":=", line, column)
            return Token(TokenType.COLON, ":", line, column)

        if char == "|":
            # `|` may start a binary selector like || — keep single | as PIPE
            self._advance()
            if self._peek() in BINARY_CHARS and self._peek() != "|":
                selector = "|" + self._advance()
                return Token(TokenType.BINARY, selector, line, column)
            return Token(TokenType.PIPE, "|", line, column)

        if (
            char == "-"
            and _is_digit(self._peek(1))
            and self._prev_type not in self._OPERAND_ENDS
        ):
            self._advance()
            token = self._number(line, column)
            value = -token.value
            return Token(token.type, value, line, column)

        if char in BINARY_CHARS:
            selector = self._advance()
            if self._peek() in BINARY_CHARS | {"|"}:
                selector += self._advance()
            return Token(TokenType.BINARY, selector, line, column)

        raise LexError(f"unexpected character {char!r}", line, column)

    def _identifier_or_keyword(self, line: int, column: int) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        if self._peek() == ":" and self._peek(1) != "=":
            self._advance()
            return Token(TokenType.KEYWORD, text + ":", line, column)
        return Token(TokenType.IDENTIFIER, text, line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == "." and _is_digit(self._peek(1)):
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
            if self._peek() in ("e", "E") and (
                _is_digit(self._peek(1))
                or (self._peek(1) == "-" and _is_digit(self._peek(2)))
            ):
                self._advance()
                if self._peek() == "-":
                    self._advance()
                while _is_digit(self._peek()):
                    self._advance()
            return Token(
                TokenType.FLOAT, float(self.source[start : self.pos]), line, column
            )
        if self._peek() == "r":  # radix integers, e.g. 16rFF
            radix = int(self.source[start : self.pos])
            if 2 <= radix <= 36:
                self._advance()
                digit_start = self.pos
                while self._peek().isalnum():
                    self._advance()
                digits = self.source[digit_start : self.pos]
                if not digits:
                    raise LexError("radix integer needs digits", line, column)
                try:
                    return Token(
                        TokenType.INTEGER, int(digits, radix), line, column
                    )
                except ValueError as error:
                    raise LexError(
                        f"bad radix-{radix} literal {digits!r}", line, column
                    ) from error
        return Token(
            TokenType.INTEGER, int(self.source[start : self.pos]), line, column
        )

    def _string_body(self) -> str:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string", self.line, self.column)
            char = self._advance()
            if char == "'":
                if self._peek() == "'":
                    chars.append(self._advance())
                    continue
                return "".join(chars)
            chars.append(char)

    def _hash(self, line: int, column: int) -> Token:
        self._advance()  # the '#'
        char = self._peek()
        if char == "(":
            self._advance()
            return Token(TokenType.ARRAY_START, "#(", line, column)
        if char == "'":
            return Token(TokenType.SYMBOL, self._string_body(), line, column)
        if char.isalpha() or char == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
                if self._peek() == ":":
                    self._advance()
            return Token(
                TokenType.SYMBOL, self.source[start : self.pos], line, column
            )
        if char in BINARY_CHARS | {"|"}:
            selector = self._advance()
            if self._peek() in BINARY_CHARS | {"|"}:
                selector += self._advance()
            return Token(TokenType.SYMBOL, selector, line, column)
        raise LexError("malformed symbol literal", line, column)
