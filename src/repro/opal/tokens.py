"""Token definitions for the OPAL language.

OPAL keeps Smalltalk-80's surface syntax (section 5.4: "we have been able
to incorporate declarative statements in OPAL without departing from
Smalltalk syntax") plus two path operators the paper adds: ``!`` for
component access and ``@`` for time pinning.  ``!`` and ``@`` are
therefore *not* available as binary selector characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    """Kinds of OPAL tokens."""

    IDENTIFIER = auto()   # foo
    KEYWORD = auto()      # foo:
    BINARY = auto()       # + - * <= ~= , // etc.
    INTEGER = auto()      # 42
    FLOAT = auto()        # 3.14
    STRING = auto()       # 'text'
    CHARACTER = auto()    # $a
    SYMBOL = auto()       # #foo  #foo:bar:  #+  #'quoted'
    ARRAY_START = auto()  # #(
    LPAREN = auto()       # (
    RPAREN = auto()       # )
    LBRACKET = auto()     # [
    RBRACKET = auto()     # ]
    SEMICOLON = auto()    # ;
    PERIOD = auto()       # .
    CARET = auto()        # ^
    PIPE = auto()         # | (temporaries / block separator)
    ASSIGN = auto()       # :=
    COLON = auto()        # : (block parameter marker)
    BANG = auto()         # ! (path component)
    AT = auto()           # @ (path time pin)
    END = auto()          # end of input


class Token(NamedTuple):
    """One lexed token with its source position."""

    type: TokenType
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"<{self.type.name} {self.value!r} @{self.line}:{self.column}>"


@dataclass(frozen=True)
class Slot:
    """Stands where a literal was lifted out of a doit's text.

    ``index`` counts the text's lifted literals from 0.  The compiled
    doit keeps literal *i* in slot *i* of its frame — a hidden temp
    named :attr:`name`, filled at ``execute`` — so blocks reach it by
    the lexical chain and a closure keeps the literals it was made with.
    """

    index: int

    @property
    def name(self) -> str:
        """The hidden temp's name (``%`` cannot start an identifier)."""
        return f"%{self.index}"


#: characters that may form binary selectors (``!`` and ``@`` excluded —
#: they are path operators in OPAL)
BINARY_CHARS = set("+-*/~<>=&|%,?\\")
