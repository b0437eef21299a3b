"""Sessions: private object spaces over the shared permanent database.

Section 6: "Each user session in the GemStone system has its own
invocation of the Interpreter, and its own Object Manager with a private
object space.  Sessions have shared access to the permanent database
through transactions."

A :class:`SessionObjectManager` implements the full
:class:`~repro.core.object_manager.ObjectStore` interface:

* reads come from the latest committed state (or the session's own
  uncommitted writes), and every element read/enumeration is recorded —
  the Transaction Manager's "access recording".  Reads are recorded by
  element name (``reads``: name → the oids read under it), so a column
  of one element goes in with one ``set.update`` of its oids;
* a collection read "now", with no twin of it or of a member in the
  workspace, is answered from the stable store's member column, which
  every such session shares; the session still records the
  enumeration and checks each member segment on every read.  A run of
  those members read for one element is answered from the "now" value
  column the store keeps beside it, and its oids are recorded as read;
* the first write to a committed object puts a *twin* of it into the
  private workspace, so uncommitted changes never touch shared state.
  The twin borrows the object's association tables and copies one when
  it first writes to it; a commit landing meanwhile appends to a copy
  of each table it writes (the Linker), so the borrowed ones stay as
  they were;
* new objects and classes live entirely in the workspace;
* commit hands the creation list and write log to the Transaction
  Manager; abort simply discards the workspace — the paper's "an entire
  session workspace can be discarded at the end of a session" (no GC).

Uncommitted writes are provisionally stamped at ``last committed time +
1``; the Linker re-stamps everything at the real commit time.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Any, Optional

from ..core.classes import GemClass
from ..core.object_manager import ObjectStore, element_column
from ..core.objects import ColumnObject, GemObject
from ..core.values import IMMEDIATE_TYPES, Ref, Symbol
from ..core.timedial import TimeDial
from ..errors import (
    ClassProtocolError,
    NoSuchObject,
    SessionClosed,
)
from ..govern.quota import SessionQuota
from ..perf.epochs import class_epoch
from ..storage.linker import Creation, Write
from .authorization import Authorizer, User

_segment_of = attrgetter("segment_id")
_oid_of = attrgetter("oid")

#: what a column must hold for the bulk hooks to skip per-value checks:
#: objects in hand (not designators still to resolve), and values whose
#: exact type is storable
_OBJECT_TYPES = frozenset((GemObject, GemClass, ColumnObject))
_STORABLE_TYPES = frozenset((*IMMEDIATE_TYPES, Symbol, Ref))
_NO_TWINS: frozenset = frozenset()


class SessionObjectManager(ObjectStore):
    """A user session: overlay workspace + access recording + time dial."""

    _ids = 0

    def __init__(
        self,
        store,
        transaction_manager,
        user: Optional[User] = None,
        authorizer: Optional[Authorizer] = None,
        quota: Optional["SessionQuota"] = None,
    ) -> None:
        super().__init__()
        SessionObjectManager._ids += 1
        self.session_id = SessionObjectManager._ids
        self.store = store
        self.transaction_manager = transaction_manager
        self.user = user
        self.authorizer = authorizer
        self.quota = quota
        self.time_dial = TimeDial(
            safe_time_provider=transaction_manager.safe_time,
            # SafeTime may never pass the latest *committed* state the
            # shared store has durably recorded (§5.4)
            commit_time_provider=lambda: self.store.last_tx_time,
        )
        self._closed = False
        # transaction-scoped state
        self.workspace: dict[int, GemObject] = {}
        self._created: set[int] = set()
        self._transients: set[int] = set()
        self.creations: list[Creation] = []
        self.write_log: list[Write] = []
        #: element name -> oids read under it (access recording)
        self.reads: defaultdict[Any, set[int]] = defaultdict(set)
        self.enum_reads: set[int] = set()
        #: the shared member column :meth:`members_of` last answered
        #: from, and the rows ``[start, stop)`` a value column last
        #: answered :meth:`values_at_column` with
        self._scan: Optional[tuple] = None
        self.start_time = 0
        transaction_manager.begin(self)

    def __repr__(self) -> str:
        who = self.user.name if self.user else "embedded"
        return f"<Session {self.session_id} user={who} start={self.start_time}>"

    # -- lifecycle --------------------------------------------------------------

    def commit(self) -> int:
        """Commit the transaction; returns its transaction time.

        Raises :class:`~repro.errors.TransactionConflict` if optimistic
        validation fails — the workspace is then discarded (the
        transaction is aborted) and a fresh transaction begins.

        A :class:`~repro.errors.StorageError` mid-commit (an injected
        crash, a degraded volume) also propagates, but the session
        *survives* it: the Transaction Manager detached the workspace
        before applying it, and a fresh transaction begins, so the same
        session can retry once the store recovers.
        """
        self._ensure_open()
        return self.transaction_manager.commit(self)

    def abort(self) -> None:
        """Discard the workspace wholesale and begin a new transaction."""
        self._ensure_open()
        self.transaction_manager.abort(self)

    def close(self) -> None:
        """End the session; its workspace is discarded, never collected."""
        if not self._closed:
            self.transaction_manager.end_session(self)
            self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def reset_transaction_state(self) -> None:
        """Clear workspace and access records (Transaction Manager hook)."""
        self.workspace.clear()
        self._created.clear()
        self._transients.clear()
        self.creations.clear()
        self.write_log.clear()
        self.reads.clear()
        self.enum_reads.clear()
        self._scan = None
        if self.classes:
            # overlay class definitions leave scope here (abort discards
            # them, commit merges them into the shared store) — either
            # way, resolutions made against the overlay are now suspect
            class_epoch.bump()
        self.classes.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionClosed(f"session {self.session_id} is closed")

    # -- dirtiness ---------------------------------------------------------------

    @property
    def has_uncommitted_changes(self) -> bool:
        """True if the workspace holds writes or creations."""
        return bool(self.write_log or self.creations)

    # -- ObjectStore primitives ----------------------------------------------------

    def object(self, oid: int) -> GemObject:
        self._ensure_open()
        twin = self.workspace.get(oid)
        if twin is not None:
            return twin
        obj = self.store.object(oid)
        if self.authorizer is not None:
            self.authorizer.check_read(self.user, obj.segment_id)
        return obj

    def objects(self, oids: list[int]) -> list[GemObject]:
        if not oids:
            return []
        self._ensure_open()
        workspace = self.workspace
        try:
            if workspace.keys().isdisjoint(oids):
                found = shared = self.store.objects(oids)
            else:
                found = list(map(workspace.get, oids))
                shared = self.store.objects(
                    [oid for oid, twin in zip(oids, found) if twin is None]
                )
                rest = iter(shared)
                found = [next(rest) if twin is None else twin for twin in found]
        except NoSuchObject:
            # an unreadable object earlier in the column speaks first
            return super().objects(oids)
        if self.authorizer is not None:
            # one check per segment, in the order the rows meet them: the
            # refusal is the one the first unreadable row would get
            for segment_id in dict.fromkeys(map(_segment_of, shared)):
                self.authorizer.check_read(self.user, segment_id)
        return found

    def contains(self, oid: int) -> bool:
        return oid in self.workspace or self.store.contains(oid)

    def deref_column(self, values: list) -> list:
        types = set(map(type, values))
        if types == {Ref}:
            return self.objects([value.oid for value in values])
        if Ref not in types:
            return list(values)
        refs = iter(self.objects([v.oid for v in values if type(v) is Ref]))
        return [next(refs) if type(v) is Ref else v for v in values]

    def _resolve_target(self, target):
        # Any designator — oid, Ref, or a direct (possibly stale stable)
        # GemObject reference — must land on the workspace twin when one
        # exists, so the session always reads its own uncommitted writes.
        obj = super()._resolve_target(target)
        twin = self.workspace.get(obj.oid)
        return twin if twin is not None else obj

    def register(self, obj: GemObject) -> GemObject:
        """Adopt a freshly instantiated object into the private workspace."""
        self._ensure_open()
        if self.quota is not None:
            self.quota.check_workspace_object(len(self.workspace))
        self.workspace[obj.oid] = obj
        self._created.add(obj.oid)
        self.creations.append(Creation(obj))
        return obj

    def allocate_oid(self) -> int:
        return self.store.allocate_oid()

    def write_time(self) -> int:
        # provisional: strictly after every committed time; the Linker
        # re-stamps at the real commit time
        return self.store.last_tx_time + 1

    # -- access recording --------------------------------------------------------

    def note_read(self, oid: int, name: Any) -> None:
        if oid not in self._created:
            self.reads[name].add(oid)

    def note_enumeration(self, oid: int) -> None:
        if oid not in self._created:
            self.enum_reads.add(oid)

    def read_pairs(self) -> set[tuple[int, Any]]:
        """Every recorded element read as an (oid, element name) pair."""
        return {(oid, name) for name, oids in self.reads.items() for oid in oids}

    def values_at_column(
        self, targets: list, name: Any, time: int | None = None
    ) -> list[Any]:
        if time is None:
            values = self._scanned_values(targets, name)
            if values is not None:
                return values
        if not set(map(type, targets)) <= _OBJECT_TYPES:
            return super().values_at_column(targets, name, time)
        oids = list(map(_oid_of, targets))
        workspace = self.workspace
        if workspace.keys().isdisjoint(oids):
            # no twin among them, so nothing created here either
            self.reads[name].update(oids)
            return element_column(targets, name, self.effective_time(time))
        # the session reads its own uncommitted writes
        targets = [workspace.get(obj.oid, obj) for obj in targets]
        self.reads[name].update(set(oids) - self._created)
        dialed = self.effective_time(time)
        if dialed is time or self._created.isdisjoint(oids):
            return element_column(targets, name, dialed)
        return [obj.value_at(name, self.effective_time(time, obj)) for obj in targets]

    def _scanned_values(self, targets: list, name: Any) -> Optional[list]:
        """*targets*' "now" values of *name* from the store's shared
        value column, or ``None`` for the per-row path."""
        run = self._scanned_run(targets, name)
        values = run and self.store.value_column(run[0], name)
        return None if values is None else values[run[1]:run[2]]

    def posted_truth(self, targets: list, name: Any, keys: list) -> Optional[list]:
        run = self._scanned_run(targets, name)
        postings = run and self.store.value_column(run[0], name, posted=True)
        return None if postings is None else postings.truth(keys, run[1], run[2])

    def _scanned_run(self, targets: list, name: Any) -> Optional[tuple]:
        """``(column, row, stop)`` when *targets* are the rows
        ``row:stop`` of the member column :meth:`members_of` last
        answered from — the rows last answered again (another element),
        the run after them (the next batch) or the first, checked by
        identity, not per row — for an open session reading "now" with no
        twin of a member; else ``None``.  A run's read of *name* is
        recorded here: the per-row path would record the same set.
        """
        if self._scan is None:
            return None
        column, start, stop = self._scan
        members = column.members
        if self._closed or not targets or not self.time_dial.is_now:
            return None
        first = targets[0]
        for row in (stop, start, 0):
            if row < len(members) and members[row] is first:
                break
        else:
            return None
        stop = row + len(targets)
        if members[row:stop] != targets or not self._twins().isdisjoint(column.oids):
            return None
        self._scan = (column, row, stop)
        # no twin among them, so nothing created here either
        self.reads[name].update(
            column.oids if len(targets) == len(members) else column.order[row:stop]
        )
        return self._scan

    def _twins(self):
        """The workspace oids of committed objects this transaction wrote.

        Everything created here (a select's result among them) is in the
        workspace too, and no committed column holds it: with no more
        workspace objects than creations there is no twin to look for.
        """
        workspace = self.workspace
        return workspace.keys() if len(workspace) > len(self._created) else _NO_TWINS

    def members_of(self, target: Any, time: int | None = None) -> list[Any]:
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        time = self.effective_time(time, obj)
        if time is None and not self._closed and obj.oid not in self.workspace:
            # the committed column every session reading "now" shares
            column = self.store.member_column(obj, self._twins())
            if column is not None:
                if self.authorizer is not None:
                    for segment_id in column.segments:
                        self.authorizer.check_read(self.user, segment_id)
                self._scan = (column, 0, 0)
                return list(column.members)
        return self.deref_column(obj.live_values(time))

    # -- writes (copy-on-write twins) -----------------------------------------------

    def bind(self, target: Any, name: Any, value: Any) -> None:
        self._ensure_open()
        obj = self._resolve_target(target)
        oid = obj.oid
        if self.authorizer is not None:
            self.authorizer.check_write(self.user, obj.segment_id)
        twin = self.workspace.get(oid)
        if twin is None:
            twin = obj.copy_shell()
            self.workspace[oid] = twin
        stored = self.to_value(value)
        if oid not in self._transients and self.quota is not None:
            # enforced before the twin mutates: an over-quota write must
            # leave the workspace exactly as it was
            self.quota.check_staged_write(len(self.write_log))
        twin.bind(name, stored, self.write_time())
        if oid in self._transients:
            return  # workspace-only object: nothing to commit yet
        if isinstance(stored, Ref) and stored.oid in self._transients:
            self._promote(stored.oid)
        self.write_log.append(Write(oid, name, stored))
        self.note_write(oid, name)

    def add_members(self, collection: Any, values: list) -> None:
        oid = getattr(collection, "oid", collection)
        obj = self.workspace.get(oid) if oid in self._transients else None
        first, time = self._alias_counter + 1, self.write_time()
        if values and obj is not None and obj.takes(first, time):
            # a workspace-only object made in this transaction: nothing
            # is staged, logged or promoted, and its members are one
            # column until something needs their aliases
            stored = [Ref(v.oid) if isinstance(v, GemObject) else v for v in values]
            if set(map(type, stored)) <= _STORABLE_TYPES:
                self._ensure_open()
                if self.authorizer is not None:
                    self.authorizer.check_write(self.user, obj.segment_id)
                self._alias_counter += len(stored)
                obj.hold(first, stored, time)
                return
        # staged writes, a value to refuse, elements already bound: all
        # decided per binding
        super().add_members(collection, values)

    # -- temporary objects ----------------------------------------------------

    def instantiate_transient(self, gem_class, segment_id=None, **element_values):
        """A workspace-only object: discarded at commit unless promoted.

        Query results (``select:``/``collect:``) are created this way;
        storing one into a persistent object promotes it (and everything
        it references) to a real creation.
        """
        cls = self._coerce_class(gem_class)
        self._charge_allocation()
        if self.quota is not None:
            self.quota.check_workspace_object(len(self.workspace))
        obj = ColumnObject(
            oid=self.allocate_oid(),
            class_oid=cls.oid,
            segment_id=0 if segment_id is None else segment_id,
            created_at=self.write_time(),
        )
        self.workspace[obj.oid] = obj
        self._created.add(obj.oid)
        self._transients.add(obj.oid)
        for name, value in element_values.items():
            self.bind(obj, name, value)
        return obj

    def _promote(self, oid: int) -> None:
        """Turn a transient into a committed creation, recursively."""
        self._transients.discard(oid)
        twin = self.workspace[oid]
        self.creations.append(Creation(twin))
        for name, value in twin.items_at(None):
            if isinstance(value, Ref) and value.oid in self._transients:
                self._promote(value.oid)
            self.write_log.append(Write(oid, name, value))

    # -- time-dialed fetches -----------------------------------------------------------

    def effective_time(
        self, time: int | None, obj: GemObject | None = None
    ) -> int | None:
        """Unpinned accesses read at the dial's time (section 5.4) — but
        not of an object made in this transaction: a workspace-only
        object has no past, so it reads as it is now."""
        if time is None and not self.time_dial.is_now and (
            obj is None or obj.oid not in self._created
        ):
            return self.time_dial.time
        return time

    def value_at(self, target: Any, name: Any, time: int | None = None) -> Any:
        obj = self._resolve_target(target)
        self.note_read(obj.oid, name)
        return obj.value_at(name, self.effective_time(time, obj))

    # -- classes -------------------------------------------------------------------------

    def class_named(self, name: str):
        oid = self.classes.get(name)
        if oid is not None:
            return self.object(oid)
        if name in self.store.classes:
            return self.object(self.store.classes[name])
        raise ClassProtocolError(f"no class named {name!r}")

    def has_class(self, name: str) -> bool:
        return name in self.classes or name in self.store.classes

    def define_class(self, name, superclass="Object", instvars=(), segment_id=0):
        if self.has_class(name):
            raise ClassProtocolError(f"class {name!r} already defined")
        return super().define_class(name, superclass, instvars, segment_id)

    def new_classes(self) -> dict[str, int]:
        """Classes defined (and not yet committed) by this transaction."""
        return dict(self.classes)

    # -- SafeTime ------------------------------------------------------------------------

    def safe_time(self) -> int:
        """The most recent time no running transaction can still change."""
        return self.transaction_manager.safe_time()
