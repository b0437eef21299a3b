"""The Linker: incorporating a transaction's updates at commit time.

Section 6: "The Linker incorporates updates made by a transaction in the
permanent database at commit time, calling for restructuring of
directories as needed.  The Linker is called by the Boxer ..."

In this reproduction the Linker:

1. installs the transaction's newly created objects into the stable
   store, re-stamping their bindings at the commit's transaction time;
2. replays the transaction's write log onto the stable objects (all
   bindings of one transaction share one transaction time, section
   5.3.1);
3. orders the dirty objects parent-first along their reference edges, so
   the Boxer's first-fit packing clusters tree-structured data the way
   the paper wants physical access paths to parallel logical ones;
4. keeps, per already-stored object, exactly the bindings it replayed
   (:attr:`Linker.deltas`), so the store can append those associations
   to the object's record instead of encoding the object again.

Directory restructuring is driven from the same write log by the
Directory Manager (:mod:`repro.directories.manager`), which the database
invokes right after the Linker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..core.classes import GemClass
from ..core.objects import GemObject
from ..core.values import Ref


@dataclass(frozen=True)
class Creation:
    """A new object made by a transaction: the session-side instance.

    Only identity and definition survive into the stable store; element
    bindings are replayed from the write log at the commit time.
    """

    obj: GemObject


@dataclass(frozen=True)
class Write:
    """One element binding made by a transaction."""

    oid: int
    name: Any
    value: Any


@dataclass(frozen=True)
class Delta:
    """All that one transaction bound on an object that already had a record."""

    bindings: list  # of (element name, value), in write order
    #: the object's ``version`` once these were applied.  Anyone who
    #: binds into it afterwards at the same transaction time moves the
    #: version on, and the store then knows the delta is not everything.
    version: int


class Linker:
    """Merges one transaction's effects into the stable store."""

    def __init__(self, store) -> None:
        self.store = store
        #: oid -> :class:`Delta` of the last :meth:`incorporate`
        self.deltas: dict[int, Delta] = {}

    def incorporate(
        self,
        creations: Sequence[Creation],
        writes: Sequence[Write],
        tx_time: int,
    ) -> list[GemObject]:
        """Apply a transaction; return dirty stable objects, parent-first."""
        created = self._install_creations(creations, tx_time)
        dirty: dict[int, GemObject] = dict(created)
        bound: dict[int, list] = {}  # per object that was already stored
        for write in writes:
            oid = write.oid
            obj = dirty.get(oid)
            if obj is None:
                obj = dirty[oid] = self.store.object(oid)
                bound[oid] = []
            bindings = bound.get(oid)
            if bindings is not None:
                # a session's twin may be reading this table (it borrows
                # the ones it has not written): append to a copy of it
                obj.unshare_table(write.name)
                bindings.append((write.name, write.value))
            obj.bind(write.name, write.value, tx_time)
        self.deltas = {
            oid: Delta(bindings, dirty[oid].version)
            for oid, bindings in bound.items()
        }
        return self._order_parent_first(dirty)

    # -- creations -------------------------------------------------------------

    def _install_creations(
        self, creations: Sequence[Creation], tx_time: int
    ) -> dict[int, GemObject]:
        installed: dict[int, GemObject] = {}
        for creation in creations:
            twin = self._stable_twin(creation.obj, tx_time)
            self.store.adopt(twin)
            installed[twin.oid] = twin
        return installed

    def _stable_twin(self, obj: GemObject, tx_time: int) -> GemObject:
        if isinstance(obj, GemClass):
            twin = GemClass(
                oid=obj.oid,
                class_oid=obj.class_oid,
                name=obj.name,
                superclass_oid=obj.superclass_oid,
                instvar_names=obj.instvar_names,
                segment_id=obj.segment_id,
                created_at=tx_time,
            )
            # Share method dictionaries: method installs made after the
            # class is committed remain visible through both twins.
            twin.methods = obj.methods
            twin.class_methods = obj.class_methods
            return twin
        return GemObject(
            oid=obj.oid,
            class_oid=obj.class_oid,
            segment_id=obj.segment_id,
            created_at=tx_time,
        )

    # -- ordering ----------------------------------------------------------------

    def _order_parent_first(self, dirty: dict[int, GemObject]) -> list[GemObject]:
        """DFS from un-referenced dirty objects, parents before children."""
        if len(dirty) < 2:
            return list(dirty.values())  # nothing to order: skip the element walk
        children: dict[int, list[int]] = {}
        referenced: set[int] = set()
        for oid, obj in dirty.items():
            kids = [
                value.oid
                for _, value in obj.items_at(None)
                if isinstance(value, Ref) and value.oid in dirty and value.oid != oid
            ]
            children[oid] = kids
            referenced.update(kids)

        ordered: list[GemObject] = []
        visited: set[int] = set()

        def visit(oid: int) -> None:
            stack = [oid]
            while stack:
                current = stack.pop()
                if current in visited:
                    continue
                visited.add(current)
                ordered.append(dirty[current])
                # push children in reverse so the first child packs next
                stack.extend(reversed(children[current]))

        for oid in dirty:
            if oid not in referenced:
                visit(oid)
        for oid in dirty:  # cycles or shared-only objects
            visit(oid)
        return ordered
