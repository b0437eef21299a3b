"""GemStone objects: private memory with entity identity and history.

A :class:`GemObject` is the GSDM realization of a Smalltalk object merged
with an STDM labeled set (section 5.4): a permanent oid (identity), a class,
and a dictionary of elements, where each element is an element name plus an
:class:`~repro.core.history.AssociationTable` of (transaction time, value)
pairs.

Objects never hold direct Python references to one another; values are
immediates or :class:`~repro.core.values.Ref` oids resolved by an Object
Manager.  Identity is a property that spans time (section 5.4): the oid is
assigned at instantiation and never changes, even as element values do.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator

from ..errors import ElementNotFound
from .history import MISSING, AssociationTable
from .values import Ref, Symbol, check_element_name, check_value

#: moves on every element write to any object in this process
#: (:meth:`GemObject.bind`, :meth:`GemObject.unshare_table`; a
#: :class:`ColumnObject` taking or building its column is none).  A
#: structure built from many objects' elements — a shared value column —
#: validates against it, so every direct binder invalidates it without a
#: hook.  Each write stores a number drawn from one counter after its
#: table changes: shard workers write on several threads, and where an
#: interleaved ``+= 1`` could store a value the count had before, a drawn
#: number is stored once and never comes back.
_element_writes = 0
_write_numbers = count(1)


def element_writes() -> int:
    """The process-wide element-write count; read it before building
    what it is to vouch for."""
    return _element_writes


class GemObject:
    """A structured GSDM object: oid + class + temporal elements.

    Instances are created by an Object Manager (`instantiate`), never
    directly by applications; the manager assigns the oid, the class and
    the authorization segment.
    """

    __slots__ = (
        "oid", "class_oid", "segment_id", "elements", "created_at", "version",
        "_own",
    )

    def __init__(
        self,
        oid: int,
        class_oid: int,
        segment_id: int = 0,
        created_at: int = 0,
    ) -> None:
        self.oid = oid
        self.class_oid = class_oid
        self.segment_id = segment_id
        self.created_at = created_at
        #: element name -> AssociationTable
        self.elements: dict[Any, AssociationTable] = {}
        #: bumped on every element write — derived structures (member
        #: columns, caches) validate against it instead of write hooks,
        #: so direct ``GemObject.bind`` callers invalidate them too
        self.version = 0
        #: ``None``: every table is this object's.  On a twin made by
        #: :meth:`copy_shell`: the element names whose tables it has
        #: copied so far — all others are still the original's
        self._own: set[Any] | None = None

    def __repr__(self) -> str:
        names = ", ".join(repr(n) for n in list(self.elements)[:6])
        more = "…" if len(self.elements) > 6 else ""
        return f"<GemObject oid={self.oid} class={self.class_oid} [{names}{more}]>"

    @property
    def ref(self) -> Ref:
        """A :class:`Ref` to this object, for storing in other elements."""
        return Ref(self.oid)

    # -- element binding -----------------------------------------------------

    def bind(self, name: Any, value: Any, time: int) -> None:
        """Bind element *name* to *value* as of transaction *time*.

        New element names may be added to any existing instance — the
        paper's "optional instance variables ... and the ability to add
        new variables to existing instances" (section 4.3).
        """
        global _element_writes
        check_element_name(name)
        check_value(value)
        table = self.elements.get(name)
        own = self._own
        if own is not None and name not in own:
            # a twin's first write here: copy this one borrowed table
            own.add(name)
            table = self.elements[name] = (
                AssociationTable() if table is None else table.copy()
            )
        elif table is None:
            table = self.elements[name] = AssociationTable()
        table.record(time, value)
        self.version += 1
        _element_writes = next(_write_numbers)

    def unshare_table(self, name: Any) -> None:
        """Give element *name* a table no twin reads.

        A twin borrows the tables it has not written (:meth:`copy_shell`),
        so whoever appends to a table of an original that sessions can
        twin calls this first (the Linker does, for every write it
        replays): a twin then keeps the table as it was.
        """
        global _element_writes
        table = self.elements.get(name)
        if table is not None:
            self.elements[name] = table.copy()
            _element_writes = next(_write_numbers)

    def unbind(self, name: Any, time: int) -> None:
        """Record departure of an element by binding it to nil.

        Figure 1 expresses Ayn Rand leaving the company as a binding of
        her element to the object ``nil`` at time 8; nothing is deleted.
        """
        self.bind(name, None, time)

    # -- element lookup ------------------------------------------------------

    def value_at(self, name: Any, time: int | None = None) -> Any:
        """Return the value of element *name* at *time*, or MISSING."""
        table = self.elements.get(name)
        if table is None:
            return MISSING
        return table.value_at(time)

    def value(self, name: Any, time: int | None = None) -> Any:
        """Like :meth:`value_at` but raises if the element is missing."""
        found = self.value_at(name, time)
        if found is MISSING:
            raise ElementNotFound(name, time)
        return found

    def has_element(self, name: Any, time: int | None = None) -> bool:
        """True if *name* was bound (to anything, even nil) at *time*."""
        return self.value_at(name, time) is not MISSING

    def is_live(self, name: Any, time: int | None = None) -> bool:
        """True if *name* is bound to a non-nil value at *time*."""
        found = self.value_at(name, time)
        return found is not MISSING and found is not None

    # -- enumeration -----------------------------------------------------------

    def element_names(self, time: int | None = None) -> list[Any]:
        """Element names bound (possibly to nil) at *time*, insertion order."""
        return [n for n, t in self.elements.items() if t.bound_at(time)]

    def live_names(self, time: int | None = None) -> list[Any]:
        """Element names bound to a non-nil value at *time*."""
        names = []
        for name, table in self.elements.items():
            value = table.value_at(time)
            if value is not MISSING and value is not None:
                names.append(name)
        return names

    def items_at(self, time: int | None = None) -> Iterator[tuple[Any, Any]]:
        """Iterate live (name, value) pairs as of *time*."""
        for name, table in self.elements.items():
            value = table.value_at(time)
            if value is not MISSING and value is not None:
                yield name, value

    def live_values(self, time: int | None = None) -> list[Any]:
        """The non-nil element values at *time*, in element order.

        ``[value for _, value in self.items_at(time)]``; a "now" read
        takes the last record of each table instead of bisecting
        (AssociationTable internals, same package).
        """
        if time is not None:
            return [value for _, value in self.items_at(time)]
        return [
            value
            for table in self.elements.values()
            if (values := table._values) and (value := values[-1]) is not None
        ]

    def history_of(self, name: Any) -> Iterator[tuple[int, Any]]:
        """Iterate the full (time, value) history of element *name*."""
        table = self.elements.get(name)
        if table is None:
            raise ElementNotFound(name)
        return table.history()

    # -- structural equivalence --------------------------------------------

    def equivalent_to(self, other: "GemObject", time: int | None = None) -> bool:
        """Shallow structural equivalence at *time* (section 4.2).

        Two entities can have all component values equal yet not be the
        same object; this tests the former.  Component Refs are compared
        by oid — a *deep* equivalence would recurse through the store and
        belongs to the Object Manager.
        """
        mine = dict(self.items_at(time))
        theirs = dict(other.items_at(time))
        return mine == theirs

    # -- maintenance -------------------------------------------------------

    def referenced_oids(self, time: int | None = None) -> set[int]:
        """Oids of all objects referenced by live elements at *time*.

        With ``time=None`` this returns references in the *current* state;
        pass an explicit time to chase a past state.
        """
        oids = set()
        for _, value in self.items_at(time):
            if isinstance(value, Ref):
                oids.add(value.oid)
        return oids

    def all_referenced_oids(self) -> set[int]:
        """Oids referenced by any association in any state (for archival)."""
        oids = set()
        for table in self.elements.values():
            for _, value in table.history():
                if isinstance(value, Ref):
                    oids.add(value.oid)
        return oids

    def last_modified(self) -> int:
        """The largest transaction time recorded in any element."""
        latest = self.created_at
        for table in self.elements.values():
            last = table.last_time
            if last is not None and last > latest:
                latest = last
        return latest

    def copy_shell(self) -> "GemObject":
        """A twin with this object's identity that borrows its tables.

        Only the element *dict* is copied.  The twin copies a table
        before its own first write to it, and reads the rest through
        the original's — so it keeps reading the state at this call
        only while the original's writer does the same for the tables
        it appends to (:meth:`unshare_table`).
        """
        other = GemObject(self.oid, self.class_oid, self.segment_id, self.created_at)
        other._borrow_elements(self)
        return other

    def _borrow_elements(self, original: "GemObject") -> None:
        self.elements = dict(original.elements)
        self._own = set()


#: the ``elements`` slot itself, under :class:`ColumnObject`'s property
_elements_slot = GemObject.__dict__["elements"]


class ColumnObject(GemObject):
    """A workspace-only object that may hold its members as one column.

    A query result is an unlabeled set (section 5.1): each member sits
    under a generated alias ``a<n>``, all bound at one write time.  Until
    something needs those names and tables — a write into the object,
    ``remove:``, an element read, encoding — it keeps only the stored
    values in alias order, the first alias number and the time.  The
    first read of :attr:`elements` builds from them exactly the tables
    binding each value under its alias would have: names ``a<first+i>``,
    one association each, a nil member keeping its alias.  Taking and
    building the column are not element writes (:func:`element_writes`):
    no shared column holds a workspace-only object.
    """

    __slots__ = ("column", "first_alias", "column_time")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.column: list | None = None

    @property
    def elements(self) -> dict[Any, AssociationTable]:
        column = self.column
        if column is not None:
            self.column = None
            first = self.first_alias
            _elements_slot.__get__(self).update(zip(
                [Symbol.generated(f"a{n}") for n in range(first, first + len(column))],
                AssociationTable.singles(self.column_time, column),
            ))
        return _elements_slot.__get__(self)

    @elements.setter
    def elements(self, value: dict[Any, AssociationTable]) -> None:
        _elements_slot.__set__(self, value)

    def takes(self, first: int, time: int) -> bool:
        """True if members aliased from ``a<first>`` on at *time* can join
        the column: none is held and no element bound yet, or they
        continue it."""
        column = self.column
        if column is None:
            return not _elements_slot.__get__(self)
        return first == self.first_alias + len(column) and time == self.column_time

    def hold(self, first: int, values: list, time: int) -> None:
        """Take stored *values* under aliases from ``a<first>`` on, bound
        at *time* — :meth:`takes` said it can, and the caller vouches the
        values are storable."""
        if self.column is None:
            self.column, self.first_alias, self.column_time = values, first, time
        else:
            self.column += values
        self.version += len(values)

    def items_at(self, time: int | None = None) -> Iterator[tuple[Any, Any]]:
        column = self.column
        if column is None:
            yield from super().items_at(time)
        elif time is None or time >= self.column_time:
            first = self.first_alias
            for i, value in enumerate(column):
                if value is not None:
                    yield Symbol.generated(f"a{first + i}"), value

    def live_values(self, time: int | None = None) -> list[Any]:
        column = self.column
        if column is None:
            return super().live_values(time)
        if time is not None and time < self.column_time:
            return []
        return [value for value in column if value is not None]
