"""Association tables: the temporal binding of element names to values.

Section 6 of the paper describes the Object Manager's representation:

    "An element is represented as an element name and a table of
    associations.  The associations are pairs of transaction times and
    object pointers, each representing that the element acquired the
    object as its value at the time given by the transaction time."

This module implements exactly that table.  A binding made at time *t*
remains in force until a later binding supersedes it (section 5.3.2).
Deleting an element is expressed by binding it to ``nil`` (Figure 1 shows
employee 1821 bound to ``nil`` at time 8 when Ayn Rand leaves the company);
nothing is ever physically removed, which is what lets GemStone skip
garbage collection of database objects.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator

from ..errors import TimeTravelError


class _Missing:
    """Sentinel for 'no binding existed at that time'.

    Distinct from ``None`` (GemStone ``nil``), which is a real value an
    element can be bound to.
    """

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"

    def __bool__(self) -> bool:
        return False


#: The unique missing-binding sentinel.
MISSING = _Missing()


class AssociationTable:
    """A time-ordered table of (transaction time, value) associations.

    Appends must be monotone in time: the Transaction Manager assigns
    strictly increasing commit times, and within one transaction a second
    binding of the same element simply replaces the first (both carry the
    same commit time).

    The table is stored as two parallel lists sorted by time, so a lookup
    at an arbitrary time is a binary search — the "mapping from arbitrary
    times to value" the paper says "can easily be realized".
    """

    __slots__ = ("_times", "_values")

    def __init__(self) -> None:
        self._times: list[int] = []
        self._values: list[Any] = []

    @classmethod
    def singles(cls, time: int, values: list) -> "list[AssociationTable]":
        """One new table per value, each holding just ``(time, value)``."""
        tables = []
        for value in values:
            table = cls.__new__(cls)
            table._times = [time]
            table._values = [value]
            tables.append(table)
        return tables

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{t}: {v!r}" for t, v in self.history())
        return f"<AssociationTable {pairs}>"

    # -- recording ---------------------------------------------------------

    def record(self, time: int, value: Any) -> None:
        """Associate *value* with this element as of transaction *time*.

        A second record at the same time overwrites (two writes in one
        transaction yield one association).  Recording at an earlier time
        than the latest association is a :class:`TimeTravelError` — history
        is append-only.
        """
        if self._times:
            last = self._times[-1]
            if time == last:
                self._values[-1] = value
                return
            if time < last:
                raise TimeTravelError(
                    f"cannot record at time {time}; table already at {last}"
                )
        self._times.append(time)
        self._values.append(value)

    # -- lookup ------------------------------------------------------------

    def value_at(self, time: int | None = None) -> Any:
        """Return the value in force at *time* (``None`` means now).

        Returns :data:`MISSING` if the element had not yet been bound at
        *time*.  This realizes the paper's ``E!Salary@T``: the value that
        ``E!Salary`` had in the database state existing at time *T*.
        """
        if not self._times:
            return MISSING
        if time is None:
            return self._values[-1]
        index = bisect_right(self._times, time)
        if index == 0:
            return MISSING
        return self._values[index - 1]

    def current(self) -> Any:
        """Return the most recent value, or :data:`MISSING` if never bound."""
        return self._values[-1] if self._values else MISSING

    def bound_at(self, time: int | None = None) -> bool:
        """Return True if a binding (possibly to nil) existed at *time*."""
        return self.value_at(time) is not MISSING

    # -- history access ------------------------------------------------------

    def history(self) -> Iterator[tuple[int, Any]]:
        """Iterate all (time, value) associations, oldest first."""
        return zip(self._times, self._values)

    def times(self) -> tuple[int, ...]:
        """All transaction times in the table, ascending."""
        return tuple(self._times)

    @property
    def first_time(self) -> int | None:
        """The time of the first association, or None if empty."""
        return self._times[0] if self._times else None

    @property
    def last_time(self) -> int | None:
        """The time of the latest association, or None if empty."""
        return self._times[-1] if self._times else None

    def validity_interval(self, time: int) -> tuple[int, int | None] | None:
        """Return the ``[start, end)`` interval of the binding at *time*.

        ``end`` is ``None`` for the current (open) binding.  Returns None
        if no binding was in force at *time*.  Directories use these
        intervals to index past states (section 6, Directory Manager).
        """
        index = bisect_right(self._times, time)
        if index == 0:
            return None
        start = self._times[index - 1]
        end = self._times[index] if index < len(self._times) else None
        return (start, end)

    def truncate_to(self, time: int) -> int:
        """Drop associations recorded strictly after *time*; return count dropped.

        Only the recovery path uses this, to roll a cached object back to
        the state recorded by the last safe-written root.
        """
        index = bisect_right(self._times, time)
        dropped = len(self._times) - index
        del self._times[index:]
        del self._values[index:]
        return dropped

    def copy(self) -> "AssociationTable":
        """Return an independent copy of this table."""
        other = AssociationTable()
        other._times = list(self._times)
        other._values = list(self._values)
        return other
