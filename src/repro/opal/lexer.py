"""The OPAL lexer: source text to tokens, in one pass over one table.

Smalltalk-80 lexical rules: double-quoted comments are whitespace,
single-quoted strings double their quotes to escape, ``$x`` is a
character, ``#`` introduces symbols and literal arrays, identifiers
followed immediately by ``:`` are keywords.  OPAL adds ``!`` and ``@``
as path tokens (never part of binary selectors).

The rules are one master pattern (:data:`_TOKEN`), matched once per
token; the alternative that matched names the rule.  Two things a
pattern cannot say are settled after the match: ``-`` directly before a
digit is a sign only where no operand precedes it, and ``16rFF`` is a
radix integer only for radices 2..36 (``99rX`` is ``99`` then ``rX``).

The same pass answers what ``OpalEngine`` keys compiled blocks on: the
text's *shape* — its token spellings, with every literal that no later
stage reads replaced by a mark — and those literals' values.  Lifted
are numbers and strings anywhere, and the component after ``!`` outside
every ``[ ]`` (``World!k0123``); inside a block a path stays in the
shape, because directory matching reads it.  Kept as written are the
time pin after ``@`` (a literal one is baked into the translated path:
everything inside ``@( … )`` stays) and everything inside ``#( … )``.
A warm text is not scanned: ``OpalEngine`` finds its block by the
*skeleton* one C-level split leaves, and scans only on a miss, where
:attr:`Lexer.lifted` admits a skeleton whose cuts are lifted tokens.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any

from ..errors import LexError
from .tokens import Slot, Token, TokenType

_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_BINARY = r"[-+*/~<>=&%,?\\]"  # BINARY_CHARS without `|`
_BLANK = r"""(?: \s | "[^"]*" )*"""  # one way to match: backtracks linearly

_TOKEN = re.compile(
    rf"""{_BLANK} (?:
      (?P<mark>    [()\[\];.^!@] )
    | (?P<word>    [^\W\d]\w* (?: :(?!=) )? )
    | (?P<number>  (?P<sign>-)? (?P<digits>[0-9]+)
                   (?: (?P<fraction> \.[0-9]+ (?: [eE]-?[0-9]+ )? )
                     | (?P<radix> r[^\W_]* ) )? )
    | (?P<binary>  {_BINARY} [-+*/~<>=&|%,?\\]? )
    | (?P<string>  {_STRING} )
    | (?P<assign>  := )
    | (?P<colon>   : )
    | (?P<pipe>    \| {_BINARY}? )
    | (?P<array>   \#\( )
    | (?P<symbol>  \# (?: {_STRING} | (?=[^\W\d]) (?: \w:? )+
                        | [-+*/~<>=&|%,?\\]{{1,2}} ) )
    | (?P<char>    \$ (?s:.) )
    | (?P<end>     \Z )
    )""",
    re.VERBOSE,
)
_BLANKS = re.compile(_BLANK, re.VERBOSE)

_MARKS = {
    "(": TokenType.LPAREN, ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET, "]": TokenType.RBRACKET,
    ";": TokenType.SEMICOLON, ".": TokenType.PERIOD,
    "^": TokenType.CARET, "!": TokenType.BANG, "@": TokenType.AT,
}

#: rule -> the type of its token, before what the scan settles itself
_TYPES = {
    "word": TokenType.IDENTIFIER, "number": TokenType.INTEGER,
    "string": TokenType.STRING, "binary": TokenType.BINARY,
    "assign": TokenType.ASSIGN, "colon": TokenType.COLON,
    "pipe": TokenType.PIPE, "array": TokenType.ARRAY_START,
    "symbol": TokenType.SYMBOL, "char": TokenType.CHARACTER,
    "mark": None, "end": TokenType.END,
}
_AT, _BANG, _BINARY = TokenType.AT, TokenType.BANG, TokenType.BINARY

#: token types after which `-` is subtraction, not a numeric sign
_OPERAND_ENDS = frozenset({
    TokenType.IDENTIFIER, TokenType.INTEGER, TokenType.FLOAT,
    TokenType.STRING, TokenType.CHARACTER, TokenType.SYMBOL,
    TokenType.RPAREN, TokenType.RBRACKET,
})

#: what stands in a shape where a literal of that type was lifted
_LIFTED = {
    TokenType.INTEGER: "\0i", TokenType.FLOAT: "\0f",
    TokenType.STRING: "\0s", TokenType.IDENTIFIER: "\0n",
}


def _starts_a_name(char: str) -> bool:
    """``[^\\W\\d]`` also admits digit-likes such as ``²``; names do not."""
    return char.isalpha() or char == "_"


class Lexer:
    """One scan of OPAL source text; raises :class:`LexError` on creation."""

    def __init__(self, source: str) -> None:
        self.source = source
        self._newlines = [found.start() for found in re.finditer("\n", source)]
        #: per token: (type, value, offset)
        self._scanned: list[tuple[TokenType, Any, int]] = []
        #: the values lifted out of the shape, and their token positions
        self.literals: list[Any] = []
        self._lifted_at: list[int] = []
        #: the token spellings, a mark where a literal was lifted
        self.shape: tuple[str, ...] = tuple(self._scan())

    def tokens(self, lifted: bool = False) -> list[Token]:
        """The whole token stream; the final token is always END.  With
        *lifted*, the tokens of :attr:`literals` carry ``Slot(0)``,
        ``Slot(1)``, … in place of their values."""
        scanned = self._scanned
        if lifted:
            scanned = list(scanned)
            for index, position in enumerate(self._lifted_at):
                type_, _, start = scanned[position]
                scanned[position] = (type_, Slot(index), start)
        where = self._where
        scanned = [*scanned, (TokenType.END, None, len(self.source))]
        return [Token(type_, value, *where(start)) for type_, value, start in scanned]

    @property
    def lifted(self) -> list[tuple[TokenType, Any, int]]:
        """(type, value, offset) of the token of each of :attr:`literals`."""
        return [self._scanned[position] for position in self._lifted_at]

    # -- internals --------------------------------------------------------------

    def _where(self, offset: int) -> tuple[int, int]:
        """(line, column) of *offset*, both 1-based."""
        row = bisect_left(self._newlines, offset)
        return row + 1, offset - (self._newlines[row - 1] if row else -1)

    def _scan(self) -> list[str]:
        source = self.source
        match = _TOKEN.match
        scanned = self._scanned
        shape: list[str] = []
        offset = blocks = kept = 0  # depths: of [ ], of #( ) and @( )
        previous = None
        while True:
            found = match(source, offset)
            if found is None:
                raise self._no_token_at(_BLANKS.match(source, offset).end())
            rule = found.lastgroup
            text = value = found.group(rule)
            offset = found.end()
            start = offset - len(text)
            type_ = _TYPES[rule]
            liftable = False
            if rule == "mark":
                type_ = _MARKS[text]
                if kept or (text == "(" and previous is _AT):
                    kept += (text == "(") - (text == ")")
                else:
                    blocks += (text == "[") - (text == "]")
            elif rule == "word":
                if not (text.isascii() or _starts_a_name(text[0])):
                    raise self._no_token_at(start)
                if text[-1] == ":":
                    type_ = TokenType.KEYWORD
                else:
                    liftable = previous is _BANG
            elif rule == "number":
                if text[0] == "-" and previous in _OPERAND_ENDS:
                    type_, text, value, offset = _BINARY, "-", "-", start + 1
                else:
                    type_, value, offset = self._number(found, start)
                    text = source[start:offset]
                    liftable = True
            elif rule == "string":
                value = text[1:-1].replace("''", "'")
                liftable = True
            elif rule == "pipe":
                if text != "|":
                    type_ = _BINARY
            elif rule == "array":
                kept += 1
            elif rule == "symbol":
                if text[1] == "'":
                    value = text[2:-1].replace("''", "'")
                elif text.isascii() or _starts_a_name(text[1]):
                    value = text[1:]
                else:
                    raise self._no_token_at(start)
            elif rule == "char":
                value = text[1]
            elif rule == "end":
                return shape
            if liftable and not kept and previous is not _AT and (
                not blocks or previous is not _BANG
            ):
                text = _LIFTED[type_]
                self.literals.append(value)
                self._lifted_at.append(len(scanned))
            scanned.append((type_, value, start))
            shape.append(text)
            previous = type_

    def _number(self, found, start: int) -> tuple[TokenType, Any, int]:
        """(type, value, end offset) of a matched numeral."""
        sign, digits, fraction, radix = found.group(
            "sign", "digits", "fraction", "radix"
        )
        end = found.end()
        if fraction is not None:
            type_, value = TokenType.FLOAT, float(digits + fraction)
        else:
            type_, value = TokenType.INTEGER, int(digits)
            if radix is not None:
                if 2 <= value <= 36:  # radix integers, e.g. 16rFF
                    value = self._radix_value(value, radix[1:], start)
                else:
                    end = found.end("digits")  # `99rX`: 99, then rX
        return type_, -value if sign else value, end

    def _radix_value(self, radix: int, digits: str, start: int) -> int:
        if not digits:
            raise LexError("radix integer needs digits", *self._where(start))
        try:
            return int(digits, radix)
        except ValueError as error:
            raise LexError(
                f"bad radix-{radix} literal {digits!r}", *self._where(start)
            ) from error

    def _no_token_at(self, offset: int) -> LexError:
        """Why no rule matches at *offset*, as the error to raise."""
        source = self.source
        char = source[offset]
        if char == '"':
            return LexError("unterminated comment", *self._where(len(source)))
        if char == "'" or source.startswith("#'", offset):
            return LexError("unterminated string", *self._where(len(source)))
        message = {"$": "character literal at end of input",
                   "#": "malformed symbol literal"}.get(char)
        return LexError(message or f"unexpected character {char!r}", *self._where(offset))
