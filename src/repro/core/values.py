"""Immediate (simple) values of the GemStone Data Model.

The paper distinguishes *simple values* from structured objects: simple
values have value identity (two equal integers are the same entity), while
structured objects have entity identity carried by an oid (section 4.2).

Immediates in this reproduction are the Python scalars ``int``, ``float``,
``bool``, ``str`` and ``None`` (GemStone's ``nil``), plus two Smalltalk
types: :class:`Symbol` (interned identifier, written ``#foo`` in OPAL) and
:class:`Char` (written ``$a``).  Everything else stored in an object element
must be a :class:`Ref` to another object.
"""

from __future__ import annotations

from typing import Any


class Symbol(str):
    """An interned identifier, the value of an OPAL ``#foo`` literal.

    Symbols compare equal to the strings they intern but display with a
    leading ``#``.  Interning makes ``Symbol('x') is Symbol('x')`` true,
    mirroring Smalltalk symbol identity.

    The table never forgets, so what a store *generates* by the
    thousand — the aliases of unlabeled set members, one per member of
    every query result — is made by :meth:`generated` and stays out of
    it: such a symbol lives and dies with the objects that hold it.
    """

    _interned: dict[str, "Symbol"] = {}

    def __new__(cls, text: str) -> "Symbol":
        found = cls._interned.get(text)
        if found is None:
            found = super().__new__(cls, text)
            cls._interned[text] = found
        return found

    @classmethod
    def generated(cls, text: str) -> "Symbol":
        """A symbol that is not interned.

        Equal to (and hashing as) its text and the interned symbol of
        that text, but not identical to it.
        """
        return str.__new__(cls, text)

    def __repr__(self) -> str:
        return f"#{str.__str__(self)}"


class Char:
    """A single character, the value of an OPAL ``$a`` literal."""

    __slots__ = ("codepoint",)

    def __init__(self, char: str) -> None:
        if len(char) != 1:
            raise ValueError(f"Char needs exactly one character, got {char!r}")
        self.codepoint = ord(char)

    @property
    def char(self) -> str:
        """The character as a one-element string."""
        return chr(self.codepoint)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Char) and other.codepoint == self.codepoint

    def __hash__(self) -> int:
        return hash(("Char", self.codepoint))

    def __lt__(self, other: "Char") -> bool:
        if not isinstance(other, Char):
            return NotImplemented
        return self.codepoint < other.codepoint

    def __repr__(self) -> str:
        return f"${self.char}"


class Ref:
    """A reference to a structured object, by oid.

    Elements of GemStone objects never hold Python references to other
    ``GemObject`` instances; they hold ``Ref`` values that the Object
    Manager resolves.  This keeps identity explicit (the paper's GOOPs)
    and makes the storage codec a pure function of element contents.
    """

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(("Ref", self.oid))

    def __repr__(self) -> str:
        return f"<Ref {self.oid}>"


#: Immediate Python types accepted as element values and element names.
IMMEDIATE_TYPES = (int, float, str, bool, type(None), Char)


def is_immediate(value: Any) -> bool:
    """Return True if *value* is a simple value (has value identity)."""
    return isinstance(value, IMMEDIATE_TYPES)


def is_value(value: Any) -> bool:
    """Return True if *value* may be stored in an object element."""
    return is_immediate(value) or isinstance(value, Ref)


def check_value(value: Any) -> Any:
    """Validate *value* as storable; return it unchanged.

    Raises:
        TypeError: if the value is neither an immediate nor a :class:`Ref`.
    """
    if not is_value(value):
        raise TypeError(
            f"element values must be immediates or Refs, got {type(value).__name__}"
        )
    return value


def check_element_name(name: Any) -> Any:
    """Validate *name* as an element name; return it unchanged.

    Raises:
        TypeError: if the name is not a string, symbol, integer or Char.
    """
    if isinstance(name, bool) or not isinstance(name, (str, int, Char)):
        raise TypeError(
            f"element names must be strings, symbols, ints or Chars, "
            f"got {type(name).__name__}"
        )
    return name
