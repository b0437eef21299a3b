"""Time-aware directories (indexes) over sets of objects.

Section 6: "The Directory Manager creates and maintains directories.
Directories use standard techniques modified to handle object histories.
... Another problem is using a nested element as a discriminator.  Since
that element may be different in different states of the database, its
object may need to appear along two branches of the directory."

A :class:`Directory` indexes the members of one owner set by a
*discriminator path* evaluated relative to each member (e.g. ``Salary``
or ``Name!Last``).  Entries are interval-stamped: each carries the
``[t_start, t_end)`` transaction-time range during which the member had
that key, so associative lookups work in any past state — and a member
whose discriminator changed does appear under both keys, on disjoint
intervals, exactly the paper's "two branches".

Nested discriminators record the chain of objects traversed, so the
Directory Manager can find which members to re-key when an *inner*
object changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..core.objects import GemObject
from ..core.paths import Path, parse_path, resolve
from ..core.values import Char, Ref, Symbol
from ..errors import DirectoryError, PathError
from .btree import BPlusTree

#: sentinel key for members whose discriminator path does not resolve;
#: type-rank 99 orders it after every real key so it stays comparable
UNKEYED = (99, "unkeyed")


def normalize_key(value: Any) -> tuple:
    """Map an element value to a totally ordered composite key.

    Mixed-type discriminators are legal in GSDM (a value "is not
    restricted to a single type", section 5.2), so keys are ranked by
    type first, then by value within the type.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):  # includes Symbol
        return (3, str(value))
    if isinstance(value, Char):
        return (4, value.codepoint)
    if isinstance(value, Ref):
        return (5, value.oid)
    if isinstance(value, GemObject):
        return (5, value.oid)
    raise DirectoryError(f"cannot index value {value!r}")


@dataclass
class Entry:
    """One interval of a member's presence under a key."""

    member_oid: int
    t_start: int
    t_end: Optional[int] = None  # None = still current

    def alive_at(self, time: Optional[int]) -> bool:
        """True if the interval covers *time* (None = now)."""
        if time is None:
            return self.t_end is None
        if time < self.t_start:
            return False
        return self.t_end is None or time < self.t_end


class Directory:
    """A B+tree of interval-stamped entries over one owner set."""

    def __init__(self, owner_oid: int, path: "Path | str", name: str = "") -> None:
        self.owner_oid = owner_oid
        self.path = parse_path(path) if isinstance(path, str) else path
        self.name = name or f"idx_{owner_oid}_{self.path}"
        self.tree = BPlusTree()
        #: member oid -> list of currently open (key, Entry) pairs
        self._open: dict[int, list[tuple[tuple, Entry]]] = {}
        #: member oid -> oids traversed computing its key (incl. member)
        self.dependencies: dict[int, set[int]] = {}
        self.lookups = 0
        #: the transaction time :meth:`build` populated the tree; interval
        #: entries only cover states from here on, so queries dialed to an
        #: *earlier* state are answered from the association tables instead
        self.build_time: Optional[int] = None
        self._store: Any = None  # kept by build() for historical fallbacks
        #: probes answered by :meth:`_historical` rather than the tree
        self.historical_lookups = 0

    def __repr__(self) -> str:
        return f"<Directory {self.name!r} on !{self.path} ({len(self.tree)} entries)>"

    # -- key computation ----------------------------------------------------------

    def compute_key(self, store, member: Any, time: Optional[int] = None):
        """Evaluate the discriminator for *member*; returns (key, deps).

        A member whose path does not resolve (optional element missing,
        simple value mid-path) is filed under :data:`UNKEYED` so it still
        has a home in the directory.
        """
        member_obj = store.deref(member)
        deps: set[int] = set()
        if isinstance(member_obj, GemObject):
            deps.add(member_obj.oid)
        current = member_obj
        try:
            for step in self.path.steps:
                if not isinstance(current, (GemObject, Ref)):
                    return UNKEYED, deps
                at = step.at if step.at is not None else time
                value = store.value_at(current, step.name, at)
                current = store.deref(value)
                if isinstance(current, GemObject):
                    deps.add(current.oid)
        except PathError:
            return UNKEYED, deps
        try:
            return normalize_key(current), deps
        except DirectoryError:
            return UNKEYED, deps

    # -- maintenance ---------------------------------------------------------------

    def add_member(self, store, member: Any, time: int) -> None:
        """A member joined the owner set at *time*: open an entry."""
        member_obj = store.deref(member)
        if not isinstance(member_obj, GemObject):
            return  # simple values are not indexed members
        oid = member_obj.oid
        if oid in self._open:
            return  # already present under another alias
        key, deps = self.compute_key(store, member_obj)
        entry = Entry(oid, t_start=time)
        self.tree.insert(key, entry)
        self._open[oid] = [(key, entry)]
        self.dependencies[oid] = deps

    def remove_member(self, store, member_oid: int, time: int) -> None:
        """A member left the owner set at *time*: close its open entries."""
        for _key, entry in self._open.pop(member_oid, ()):
            entry.t_end = time
        self.dependencies.pop(member_oid, None)

    def rekey_member(self, store, member_oid: int, time: int) -> None:
        """A member's discriminator changed at *time*: close old, open new."""
        open_entries = self._open.get(member_oid)
        if open_entries is None:
            return  # not (any longer) a member
        new_key, deps = self.compute_key(store, Ref(member_oid))
        if open_entries and open_entries[-1][0] == new_key:
            self.dependencies[member_oid] = deps
            return  # unchanged
        for _key, entry in open_entries:
            entry.t_end = time
        entry = Entry(member_oid, t_start=time)
        self.tree.insert(new_key, entry)
        self._open[member_oid] = [(new_key, entry)]
        self.dependencies[member_oid] = deps

    def is_member(self, member_oid: int) -> bool:
        """True if the member currently has an open entry."""
        return member_oid in self._open

    def depends_on(self, oid: int) -> list[int]:
        """Members whose keys were computed through object *oid*."""
        return [m for m, deps in self.dependencies.items() if oid in deps]

    # -- queries --------------------------------------------------------------------

    def lookup(self, value: Any, time: Optional[int] = None) -> list[int]:
        """Member oids whose discriminator equals *value* at *time*."""
        self.lookups += 1
        key = normalize_key(value)
        if self._predates_build(time):
            return [
                oid for k, oid in self._historical(time) if k == key
            ]
        return [
            entry.member_oid
            for entry in self.tree.search(key)
            if entry.alive_at(time)
        ]

    def lookup_unkeyed(self, time: Optional[int] = None) -> list[int]:
        """Member oids whose discriminator did not resolve at *time*.

        The scan semantics this bucket mirrors: an unresolvable path is
        *no-value*, and two no-values are equal — so an equality probe
        whose own key is no-value matches exactly these members.
        """
        self.lookups += 1
        if self._predates_build(time):
            return [
                oid for k, oid in self._historical(time) if k == UNKEYED
            ]
        return [
            entry.member_oid
            for entry in self.tree.search(UNKEYED)
            if entry.alive_at(time)
        ]

    def range(
        self,
        low: Any = None,
        high: Any = None,
        time: Optional[int] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Member oids with low ≤ discriminator ≤ high at *time*, ordered.

        ``None`` bounds are open.  The :data:`UNKEYED` bucket never
        matches a range query.  A bracket no key can lie in is answered
        from the two bounds alone.
        """
        self.lookups += 1
        low_key = None if low is None else normalize_key(low)
        high_key = None if high is None else normalize_key(high)
        if low_key is not None and high_key is not None and (
            low_key > high_key
            or (low_key == high_key and not (include_low and include_high))
        ):
            return
        if self._predates_build(time):
            for key, oid in sorted(self._historical(time)):
                if key == UNKEYED:
                    continue
                if low_key is not None and (
                    key < low_key or (key == low_key and not include_low)
                ):
                    continue
                if high_key is not None and (
                    key > high_key or (key == high_key and not include_high)
                ):
                    continue
                yield oid
            return
        for key, entry in self.tree.range_scan(
            low_key, high_key, include_low, include_high
        ):
            if key == UNKEYED:
                continue
            if entry.alive_at(time):
                yield entry.member_oid

    def _predates_build(self, time: Optional[int]) -> bool:
        """True when *time* asks for a state older than the tree covers."""
        return (
            time is not None
            and self.build_time is not None
            and time < self.build_time
            and self._store is not None
        )

    def _historical(self, time: int) -> Iterator[tuple[tuple, int]]:
        """(key, member oid) pairs reconstructed from the owner's history.

        :meth:`build` stamps its entries at build time, so the tree knows
        nothing about membership *before* the directory existed.  Rather
        than widen those intervals (which would misstate when indexed
        maintenance began), pre-build queries walk the owner set's
        association tables directly — the same brute force a scan plan
        would use — so a time-dialed lookup agrees with an unindexed one.
        """
        self.historical_lookups += 1
        store = self._store
        owner = store.object(self.owner_oid)
        seen: set[int] = set()
        for _name, value in owner.items_at(time):
            if not isinstance(value, Ref):
                continue
            member = store.deref(value)
            if not isinstance(member, GemObject) or member.oid in seen:
                continue
            seen.add(member.oid)
            key, _deps = self.compute_key(store, member, time)
            yield key, member.oid

    def entry_count(self) -> int:
        """Total entries, closed intervals included."""
        return len(self.tree)

    # -- bulk build -------------------------------------------------------------------

    def build(self, store, time: int) -> int:
        """Populate from the owner set's membership as of *time*.

        Used when a directory is created over existing data; returns the
        number of members indexed.
        """
        self.build_time = time
        self._store = store
        owner = store.object(self.owner_oid)
        count = 0
        for _name, value in owner.items_at(None):
            if isinstance(value, Ref):
                self.add_member(store, value, time)
                count += 1
        return count
