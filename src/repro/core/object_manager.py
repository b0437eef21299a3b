"""Object Managers: the store interface every higher layer runs against.

Section 6: "The Object Manager performs the same operations as the ST80
object memory ... In addition, the Object Manager responds to messages to
conduct its fetches in some previous state of the database."

:class:`ObjectStore` is the abstract interface — reads, time-indexed
fetches, staged writes, instantiation, class registry and message
dispatch.  :class:`MemoryObjectManager` is the standalone in-memory
implementation with its own logical transaction clock; the transactional
:class:`~repro.concurrency.sessions.SessionObjectManager` layers a private
workspace over a shared stable store and implements the same interface.

Per the paper, there is no garbage collection of database objects:
nothing in this module ever removes an object from the store.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from ..errors import (
    ClassProtocolError,
    DoesNotUnderstand,
    NoSuchObject,
    TimeTravelError,
)
from ..perf.caches import _ABSENT, StoreCaches
from ..perf.epochs import class_epoch
from .classes import BOOTSTRAP_HIERARCHY, GemClass, Method, immediate_class_name
from .history import MISSING
from .objects import GemObject
from .values import Ref, Symbol, is_immediate

#: First oid handed out for ordinary objects; lower oids are reserved for
#: bootstrap classes so storage-format tests can rely on their stability.
FIRST_USER_OID = 1024


def live_values(obj: GemObject, time: int | None) -> list[Any]:
    """The non-nil element values of *obj* at *time*, in element order.

    ``[value for _, value in obj.items_at(time)]``; a "now" read takes
    the last record of each table instead of bisecting (AssociationTable
    internals, same package).
    """
    if time is not None:
        return [value for _, value in obj.items_at(time)]
    return [
        value
        for table in obj.elements.values()
        if (values := table._values) and (value := values[-1]) is not None
    ]


def element_column(objects: list[GemObject], name: Any, time: int | None) -> list[Any]:
    """``[obj.value_at(name, time) for obj in objects]``, "now" inlined."""
    if time is not None:
        return [
            MISSING if (table := obj.elements.get(name)) is None
            else table.value_at(time)
            for obj in objects
        ]
    return [
        values[-1]
        if (table := obj.elements.get(name)) is not None
        and (values := table._values)
        else MISSING
        for obj in objects
    ]


class MemberColumn(NamedTuple):
    """A collection's dereferenced "now" members, as of its *version*
    (read before the members were) and the *generation* of the cache
    they were looked up in; where the builder records them, the
    members' oids as a set and in row order, their distinct segments in
    row order, and the members' "now" values per element name."""

    owner: GemObject
    version: int
    generation: int
    members: list
    oids: frozenset = frozenset()
    segments: tuple = ()
    order: Sequence[int] = ()
    #: element name -> (``element_writes()`` before the build, values)
    values: Optional[dict] = None


class MemberColumns:
    """Member columns of large collections, one per collection oid.

    A column answers only for the very collection object it was built
    from, at the same ``GemObject.version`` — bumped by every element
    write, so direct ``GemObject.bind`` writers (the commit Linker, shard
    workers) invalidate it without a hook — and the same generation.
    A value column beside it answers while its column does and the
    process-wide element-write count has not moved.  What is held is
    bounded by members, not columns: a column counts its members once
    and once more per value column, and past :attr:`bound` every column
    is dropped.
    """

    #: columns below this size aren't worth keeping
    floor = 32
    #: ≈ 49 B a member with its oid set and row order, ≈ 58 B with one
    #: value column (tracemalloc): ≈ 3.1 MiB at most
    bound = 1 << 16

    def __init__(self) -> None:
        self._columns: dict[int, MemberColumn] = {}
        self._held = 0

    def get(self, obj: GemObject, generation: int = 0) -> Optional[MemberColumn]:
        """The column built from *obj* as it is now, or ``None``."""
        column = self._columns.get(obj.oid)
        if column is None or column.owner is not obj:
            return None
        return column if column[1:3] == (obj.version, generation) else None

    def put(self, column: MemberColumn) -> MemberColumn:
        """Keep *column* for its owner if its size is in bounds."""
        size = len(column.members)
        if self.floor <= size <= self.bound:
            old = self._columns.pop(column.owner.oid, None)
            if old is not None:
                self._held -= len(old.members) * (1 + len(old.values or ()))
            if self._held + size > self.bound:
                self._columns.clear()
                self._held = 0
            self._columns[column.owner.oid] = column
            self._held += size
        return column

    def values(
        self, column: MemberColumn, name: Any, generation: int, writes: int
    ) -> Optional[list]:
        """``element_column(column.members, name, None)``, kept beside
        *column* while it is its owner's current one (else ``None``) and
        the element-write count is still *writes* (read before the call)."""
        if self.get(column.owner, generation) is not column:
            return None
        held = column.values.get(name)
        if held is not None and held[0] == writes:
            return held[1]
        values = element_column(column.members, name, None)
        if held is None:
            if self._held + len(values) > self.bound:
                self._columns.clear()
                self._held = 0
                return values
            self._held += len(values)
        column.values[name] = (writes, values)
        return values


class ObjectStore:
    """Abstract store: identity-preserving object access with time travel.

    Subclasses must implement :meth:`object`, :meth:`contains`,
    :meth:`register`, :meth:`write_time` and :meth:`allocate_oid`; the
    navigation, dispatch and class-definition machinery here is shared.
    """

    def __init__(self) -> None:
        #: class name -> class oid
        self.classes: dict[str, int] = {}
        self._alias_counter = 0
        #: hot-path cache state (method lookups, plan-memo counters)
        self.perf = StoreCaches()

    # -- primitives to implement -------------------------------------------

    def object(self, oid: int) -> GemObject:
        """Return the object with *oid*; raise :class:`NoSuchObject`."""
        raise NotImplementedError

    def contains(self, oid: int) -> bool:
        """True if *oid* names an object in this store."""
        raise NotImplementedError

    def objects(self, oids: list[int]) -> list[GemObject]:
        """Bulk :meth:`object`: ``[self.object(oid) for oid in oids]``.

        This loop is the definition; a store that overrides it leaves
        every counter, access record and error as the loop would.
        """
        fetch = self.object
        return [fetch(oid) for oid in oids]

    def register(self, obj: GemObject) -> GemObject:
        """Enter a freshly created object into the store."""
        raise NotImplementedError

    def allocate_oid(self) -> int:
        """Reserve and return a new, never-used oid."""
        raise NotImplementedError

    def write_time(self) -> int:
        """The transaction time new bindings are recorded at."""
        raise NotImplementedError

    def current_time(self) -> int:
        """The newest committed transaction time this store has seen.

        Defaults to :meth:`write_time`; durable stores override it with
        their last committed time.
        """
        return self.write_time()

    def note_read(self, oid: int, name: Any) -> None:
        """Hook: an element was read (for optimistic access recording)."""

    def note_write(self, oid: int, name: Any) -> None:
        """Hook: an element was written."""

    def note_enumeration(self, oid: int) -> None:
        """Hook: an object's whole element set was enumerated.

        Enumerations are recorded separately because a concurrent commit
        that *adds* an element to the object invalidates them (a phantom)
        even though no individual (oid, name) read matches the write.
        """

    # -- value conversion -----------------------------------------------------

    def deref(self, value: Any) -> Any:
        """Resolve a stored value: Refs become objects, immediates pass through."""
        if isinstance(value, Ref):
            return self.object(value.oid)
        return value

    def to_value(self, thing: Any) -> Any:
        """Coerce *thing* to a storable value (objects become Refs)."""
        if isinstance(thing, GemObject):
            return thing.ref
        return thing

    def deref_column(self, values: list) -> list:
        """Bulk :meth:`deref` over a column of stored values.

        Semantically ``[self.deref(v) for v in values]``; the memory
        store and the session override it (a table scan, one
        :meth:`objects` call) so the batch executor pays no per-row
        method dispatch.
        """
        deref = self.deref
        return [deref(value) for value in values]

    # -- element access -------------------------------------------------------

    def _resolve_target(self, target: Any) -> GemObject:
        if isinstance(target, GemObject):
            return target
        if isinstance(target, Ref):
            return self.object(target.oid)
        if isinstance(target, int) and not isinstance(target, bool):
            return self.object(target)
        raise TypeError(f"not an object designator: {target!r}")

    def value_at(self, target: Any, name: Any, time: int | None = None) -> Any:
        """The value of element *name* of *target* at *time* (None = now).

        Returns :data:`~repro.core.history.MISSING` when unbound.  The read
        is recorded through :meth:`note_read` for optimistic validation.
        """
        obj = self._resolve_target(target)
        self.note_read(obj.oid, name)
        return obj.value_at(name, time)

    def values_at_column(
        self, targets: list, name: Any, time: int | None = None
    ) -> list[Any]:
        """Bulk :meth:`value_at` over a column of object designators.

        Semantically identical to ``[self.value_at(t, name, time) for t
        in targets]`` — the algebra's batch executor calls this once
        per path step per batch so stores can amortize per-read overhead.
        """
        value_at = self.value_at
        return [value_at(target, name, time) for target in targets]

    def fetch(self, target: Any, name: Any, time: int | None = None) -> Any:
        """Like :meth:`value_at` but dereferences Refs to objects."""
        return self.deref(self.value_at(target, name, time))

    def bind(self, target: Any, name: Any, value: Any) -> None:
        """Bind element *name* of *target* to *value* at the write time."""
        obj = self._resolve_target(target)
        self.note_write(obj.oid, name)
        obj.bind(name, self.to_value(value), self.write_time())

    def unbind(self, target: Any, name: Any) -> None:
        """Bind element *name* to nil, recording a departure (Figure 1)."""
        self.bind(target, name, None)

    # -- enumeration (tracked for phantom detection) -------------------------

    def effective_time(self, time: int | None) -> int | None:
        """Resolve an unspecified time; sessions substitute their dial."""
        return time

    def element_names_of(self, target: Any, time: int | None = None) -> list[Any]:
        """Element names bound at *time*, recording an enumeration read."""
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        return obj.element_names(self.effective_time(time))

    def live_names_of(self, target: Any, time: int | None = None) -> list[Any]:
        """Non-nil element names at *time*, recording an enumeration read."""
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        return obj.live_names(self.effective_time(time))

    def live_items_of(self, target: Any, time: int | None = None) -> list[tuple[Any, Any]]:
        """Live (name, value) pairs at *time*, recording an enumeration read."""
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        return list(obj.items_at(self.effective_time(time)))

    def members_of(self, target: Any, time: int | None = None) -> list[Any]:
        """Dereferenced live element values at *time* (set membership).

        This is how collections are traversed: an STDM set's members are
        the values of its live elements.
        """
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        return [
            self.deref(value)
            for _, value in obj.items_at(self.effective_time(time))
        ]

    # -- instantiation ---------------------------------------------------------

    def instantiate(
        self,
        gem_class: "GemClass | str",
        segment_id: int | None = None,
        **element_values: Any,
    ) -> GemObject:
        """Create a new instance of *gem_class* with a fresh, eternal oid.

        Keyword arguments pre-bind elements at the current write time.
        ``segment_id`` defaults to the store's default segment (0).
        """
        cls = self._coerce_class(gem_class)
        self._charge_allocation()
        obj = GemObject(
            oid=self.allocate_oid(),
            class_oid=cls.oid,
            segment_id=0 if segment_id is None else segment_id,
            created_at=self.write_time(),
        )
        self.register(obj)
        for name, value in element_values.items():
            self.bind(obj, name, value)
        return obj

    def _charge_allocation(self) -> None:
        """Spend one unit of the attached engine's allocation budget.

        Object creation is the one resource the interpreter cannot meter
        from its own dispatch loop (primitives allocate directly), so the
        store charges it here — whichever engine is bound to the store
        pays for what its query allocates.
        """
        runtime = getattr(self, "opal_runtime", None)
        if runtime is not None and runtime.budget is not None:
            runtime.budget.charge_allocation()

    def instantiate_transient(
        self,
        gem_class: "GemClass | str",
        segment_id: int | None = None,
        **element_values: Any,
    ) -> GemObject:
        """Create a *temporary* object (query results, scratch collections).

        In a transactional session these live only in the workspace and
        are discarded rather than committed, unless they become reachable
        from persistent state — GemStone's temporary-object semantics
        (section 6).  In a plain memory store there is no distinction.
        """
        return self.instantiate(gem_class, segment_id, **element_values)

    def new_alias(self) -> Symbol:
        """Generate a unique element-name alias for an unlabeled set member.

        Section 5.1: "for sets without labels, arbitrary aliases are used
        as element names.  Presumably, the database system can generate
        unique aliases upon demand."
        """
        self._alias_counter += 1
        return Symbol.generated(f"a{self._alias_counter}")

    def add_members(self, collection: Any, values: list) -> None:
        """Bind each of *values* into *collection* under a fresh alias.

        ``bind(collection, new_alias(), value)`` per value is the
        definition — how an unlabeled set takes members, and how a
        query result (``select:``, ``collect:``) is filled.
        """
        for value in values:
            self.bind(collection, self.new_alias(), value)

    # -- classes ----------------------------------------------------------------

    def _coerce_class(self, gem_class: "GemClass | str") -> GemClass:
        if isinstance(gem_class, GemClass):
            return gem_class
        return self.class_named(gem_class)

    def class_named(self, name: str) -> GemClass:
        """Return the class registered under *name*."""
        oid = self.classes.get(name)
        if oid is None:
            raise ClassProtocolError(f"no class named {name!r}")
        cls = self.object(oid)
        assert isinstance(cls, GemClass)
        return cls

    def has_class(self, name: str) -> bool:
        """True if a class is registered under *name*."""
        return name in self.classes

    def define_class(
        self,
        name: str,
        superclass: "GemClass | str | None" = "Object",
        instvars: tuple[str, ...] = (),
        segment_id: int = 0,
    ) -> GemClass:
        """Create and register a new class.

        Class definition is separate from instantiation (a GemStone design
        goal, section 2A): defining Employee creates one class object which
        any number of instances share.
        """
        if name in self.classes:
            raise ClassProtocolError(f"class {name!r} already defined")
        super_oid: Optional[int] = None
        if superclass is not None:
            super_oid = self._coerce_class(superclass).oid
        metaclass_oid = self.class_named("Class").oid if self.has_class("Class") else 0
        cls = GemClass(
            oid=self.allocate_oid(),
            class_oid=metaclass_oid,
            name=name,
            superclass_oid=super_oid,
            instvar_names=instvars,
            segment_id=segment_id,
            created_at=self.write_time(),
        )
        self.register(cls)
        self.classes[name] = cls.oid
        # a new class changes what names resolve and (via its placement
        # in the hierarchy) what lookups may assume — version it
        class_epoch.bump()
        return cls

    def class_of(self, value: Any) -> GemClass:
        """The class object of any value, immediate or structured."""
        if isinstance(value, Ref):
            value = self.object(value.oid)
        if isinstance(value, GemObject):
            return self.object(value.class_oid)
        if is_immediate(value):
            return self.class_named(immediate_class_name(value))
        raise ClassProtocolError(f"{value!r} has no class")

    def is_kind_of(self, value: Any, class_name: str) -> bool:
        """True if *value* is an instance of *class_name* or a subclass."""
        return self.class_of(value).is_subclass_of(self, self.class_named(class_name))

    # -- message dispatch ---------------------------------------------------------

    def lookup_method(self, receiver: Any, selector: str) -> Optional[Method]:
        """Find the method *receiver* would run for *selector*.

        Resolutions are cached per store, keyed by the receiver's class
        (class-side lookups by the class object itself, since GemClass is
        a GemObject) and validated against the class-hierarchy epoch — see
        :class:`repro.perf.caches.StoreCaches`.
        """
        perf = self.perf
        if perf.enabled:
            if type(receiver) is GemClass:
                key = (1, receiver.oid, selector)
            elif type(receiver) is GemObject:
                key = (0, receiver.class_oid, selector)
            elif not isinstance(receiver, (GemObject, Ref)):
                key = (2, type(receiver), selector)
            else:
                key = None  # Ref or GemObject subclass: stay uncached
            if key is not None:
                entry = perf.method_get(key)
                if entry is not _ABSENT:
                    return entry
                method = self._lookup_method_uncached(receiver, selector)
                perf.method_put(key, method)
                return method
        return self._lookup_method_uncached(receiver, selector)

    def _lookup_method_uncached(
        self, receiver: Any, selector: str
    ) -> Optional[Method]:
        """The full hierarchy walk behind :meth:`lookup_method`."""
        if isinstance(receiver, GemClass):
            method = receiver.lookup_class_side(self, selector)
            if method is not None:
                return method
        return self.class_of(receiver).lookup(self, selector)

    def send(self, receiver: Any, selector: str, *args: Any) -> Any:
        """Send a message: look up *selector* and invoke the method.

        Raises :class:`DoesNotUnderstand` when no class in the receiver's
        hierarchy implements the selector.
        """
        method = self.lookup_method(receiver, selector)
        if method is None:
            raise DoesNotUnderstand(self.class_of(receiver).name, selector)
        return method.invoke(self, receiver, args)

    def responds_to(self, receiver: Any, selector: str) -> bool:
        """True if *receiver* has a method for *selector*."""
        return self.lookup_method(receiver, selector) is not None

    # -- bootstrap -----------------------------------------------------------------

    def bootstrap_classes(self) -> None:
        """Create the kernel class hierarchy (idempotent per store)."""
        for name, super_name in BOOTSTRAP_HIERARCHY:
            if name not in self.classes:
                self.define_class(name, super_name, ())
        # Classes created before "Class" existed (just "Object") got a
        # placeholder class_oid; every class is an instance of Class.
        class_oid = self.classes["Class"]
        for oid in self.classes.values():
            self.object(oid).class_oid = class_oid


class MemoryObjectManager(ObjectStore):
    """A standalone, purely in-memory Object Manager with a logical clock.

    Each call to :meth:`tick` ends one notional transaction: subsequent
    writes record at the next transaction time.  This is the store used by
    unit tests, the STDM engine's tests and non-durable examples; the full
    database stacks sessions and storage underneath the same interface.
    """

    def __init__(self, bootstrap: bool = True) -> None:
        super().__init__()
        self._objects: dict[int, GemObject] = {}
        self._member_columns = MemberColumns()
        self._next_oid = 1
        self.now = 1
        self._read_observer: Optional[Callable[[int, Any], None]] = None
        self._write_observer: Optional[Callable[[int, Any], None]] = None
        if bootstrap:
            self.bootstrap_classes()
            self._next_oid = max(self._next_oid, FIRST_USER_OID)

    # -- primitives ------------------------------------------------------------

    def object(self, oid: int) -> GemObject:
        obj = self._objects.get(oid)
        if obj is None:
            raise NoSuchObject(oid)
        return obj

    def contains(self, oid: int) -> bool:
        return oid in self._objects

    def deref_column(self, values: list) -> list:
        # direct table hits; the rare dangling Ref falls back to the
        # per-row path so the error carries the right oid
        objects = self._objects
        try:
            return [
                objects[value.oid] if type(value) is Ref else value
                for value in values
            ]
        except KeyError:
            return super().deref_column(values)

    def register(self, obj: GemObject) -> GemObject:
        self._objects[obj.oid] = obj
        return obj

    def allocate_oid(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def write_time(self) -> int:
        return self.now

    def note_read(self, oid: int, name: Any) -> None:
        if self._read_observer is not None:
            self._read_observer(oid, name)

    def note_write(self, oid: int, name: Any) -> None:
        if self._write_observer is not None:
            self._write_observer(oid, name)

    def members_of(self, target: Any, time: int | None = None) -> list[Any]:
        # "now" columns of large collections are kept (MemberColumns)
        if time is not None:
            return super().members_of(target, time)
        obj = self._resolve_target(target)
        self.note_enumeration(obj.oid)
        column = self._member_columns.get(obj)
        if column is None:
            column = self._member_columns.put(MemberColumn(
                obj, obj.version, 0, self.deref_column(live_values(obj, None))
            ))
        return list(column.members)

    def values_at_column(
        self, targets: list, name: Any, time: int | None = None
    ) -> list[Any]:
        # The hot loop of the batch executor.  With no workspace
        # twins and no time dial, value_at reduces to note_read plus a
        # history lookup.
        observer = self._read_observer
        if observer is not None:
            for obj in targets:
                observer(obj.oid, name)
        return element_column(targets, name, time)

    # -- clock ---------------------------------------------------------------------

    def tick(self, steps: int = 1) -> int:
        """Advance the logical clock by *steps* transactions; return now."""
        if steps < 1:
            raise ValueError("tick needs a positive step count")
        self.now += steps
        return self.now

    def advance_to(self, time: int) -> int:
        """Jump the clock forward to *time* (used to replay Figure 1)."""
        if time < self.now:
            raise TimeTravelError(f"clock is at {self.now}, cannot rewind to {time}")
        self.now = time
        return self.now

    # -- observation -----------------------------------------------------------------

    def observe(
        self,
        on_read: Optional[Callable[[int, Any], None]] = None,
        on_write: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        """Install read/write observers (the paper's access recording)."""
        self._read_observer = on_read
        self._write_observer = on_write

    # -- enumeration --------------------------------------------------------------------

    def all_oids(self) -> Iterator[int]:
        """Iterate every oid in the store (classes included)."""
        return iter(tuple(self._objects))

    def object_count(self) -> int:
        """Number of objects in the store — unbounded, unlike ST80's 32K."""
        return len(self._objects)

    def instances_of(self, gem_class: "GemClass | str") -> Iterator[GemObject]:
        """Iterate direct and indirect instances of *gem_class*."""
        cls = self._coerce_class(gem_class)
        for obj in self._objects.values():
            if self.object(obj.class_oid).is_subclass_of(self, cls):
                yield obj
