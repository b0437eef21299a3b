"""The stable store: the shared, durable object space.

This module composes the storage pipeline of section 6 —

    Linker → Boxer → Track Manager → Commit Manager

— under one object that also implements the
:class:`~repro.core.object_manager.ObjectStore` interface, so the
Database and DBA tooling can navigate committed state directly.

Layout on disk:

* tracks 0/1 — ping-pong root slots (Commit Manager);
* object records — boxed fragments on shadow-allocated tracks, located
  via the paged object table;
* one *contents record* per commit (oid 0), boxed right behind that
  commit's object records: a directory that says where each section —
  every object-table page, the catalog, the note — lives, and the bytes
  of the sections the commit changed.  A section the commit left alone
  keeps pointing into the older record that holds it.  The root lists
  the contents record's tracks and nothing else.

Nothing records which tracks are allocated: that is what the root
reaches (:meth:`StableStore._allocated`), derived at open and after
every commit alike.

The *note* is a small name → bytes map published by the same root flip
as the data, for protocol state that must change atomically with a
commit but is not database state (today: a 2PC participant's in-doubt
set).  It is a section rewritten only when it changes, keeps no
history, and an empty note is no section at all.

Every commit writes only new tracks and flips the root, so torn groups
are invisible after recovery.  Tracks whose last resident moved are
released only once the commit is durable.

A record that spans tracks is not rewritten by a commit that only adds
associations to it: the commit's bindings are encoded alone, appended
to the payload of the record's *last* fragment, and only that tail is
boxed onto a fresh track — the earlier fragments keep theirs.  A record
that fits one track, a new object, and any write the caller brings no
delta for go out whole, which is also what folds a long tail back into
the record's tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import attrgetter
from typing import Any, Callable, Mapping, Optional, Sequence

from ..core.classes import GemClass
from ..core.object_manager import FIRST_USER_OID, ObjectStore
from ..core.object_manager import MemberColumn, MemberColumns, Postings
from ..core.objects import GemObject, element_writes
from ..core.values import Ref
from ..errors import ArchiveError, CodecError, NoSuchObject
from .archive import ArchiveDrive, ArchiveMedia
from .boxer import Boxer, PackResult, assemble, find_fragment
from .cache import ObjectCache
from .codec import (
    CONTENTS_OID,
    ContentsEntry,
    decode_catalog,
    decode_contents,
    decode_note,
    decode_object_full,
    encode_appends,
    encode_catalog,
    encode_contents,
    encode_note,
    encode_object,
)
from .commit import CommitManager
from .linker import Delta
from .object_table import ObjectTable, decode_page_directory
from .tracks import RESERVED_TRACKS, TrackManager

_CLASS_CATALOG_PREFIX = "class:"
_segment_of = attrgetter("segment_id")


def read_record(
    read_track: Callable[[int], bytes], oid: int, track_numbers: Sequence[int]
) -> bytes:
    """The record of *oid* whose fragments are on *track_numbers*.

    Fragment i comes from track i of the placements and from nowhere
    else: a tiny fragment can share a track with the one before it (the
    placements then name that track twice), and once the record has
    grown, that sealed track still holds the superseded copy.
    """
    fragments = [
        find_fragment(read_track(track), oid, seq)
        for seq, track in enumerate(track_numbers)
    ]
    return assemble(fragments, len(track_numbers))


def read_contents(
    read_track: Callable[[int], bytes], record_tracks: Sequence[int]
) -> tuple[dict[Any, ContentsEntry], dict[Any, bytes]]:
    """(directory, section bytes) of the contents record on *record_tracks*,
    its self entries given those tracks; each older record an entry points
    into is read once."""
    own = tuple(record_tracks)
    listed, body = decode_contents(read_record(read_track, CONTENTS_OID, own))
    bodies = {own: body}
    directory: dict[Any, ContentsEntry] = {}
    sections: dict[Any, bytes] = {}
    for section, entry in listed.items():
        entry = directory[section] = entry if entry.tracks else entry._replace(tracks=own)
        if entry.tracks not in bodies:
            record = read_record(read_track, CONTENTS_OID, entry.tracks)
            bodies[entry.tracks] = decode_contents(record)[1]
        end = entry.offset + entry.length
        data = sections[section] = bodies[entry.tracks][entry.offset : end]
        if len(data) != entry.length:
            raise CodecError(f"section {section!r} runs past its record")
    return directory, sections


def pack_contents(
    tracks: TrackManager,
    boxer: Boxer,
    pack: PackResult,
    numbered: list[int],
    directory: dict[Any, ContentsEntry],
    changed: Mapping[Any, bytes],
) -> list[int]:
    """Pack the contents record of *directory* and *changed* behind
    *pack*, whose images so far go to *numbered*; allocate the images it
    adds onto *numbered* and return the record's tracks.  *directory*
    gains a self entry, on those tracks, for each section of *changed*."""
    boxer.pack_into(pack, [(CONTENTS_OID, encode_contents(directory, changed))])
    numbered += tracks.allocate(len(pack.images) - len(numbered))
    own = tuple(numbered[i] for i in pack.placements[CONTENTS_OID])
    for section in changed:
        directory[section] = directory[section]._replace(tracks=own)
    return list(own)


def read_blob(tracks: TrackManager, track_numbers: Sequence[int]) -> bytes:
    """A blob of a platter written before the contents record: each track
    ``u32 length`` and that many bytes."""
    parts = []
    for track in track_numbers:
        raw = tracks.read(track)
        length = int.from_bytes(raw[:4], "little")
        if len(raw) < 4 or length > len(raw) - 4:
            raise CodecError(f"track {track} does not hold a blob chunk")
        parts.append(raw[4 : 4 + length])
    return b"".join(parts)


class StableStore(ObjectStore):
    """The durable, shared object space behind all sessions."""

    def __init__(self, disk, cache_capacity: Optional[int] = None) -> None:
        super().__init__()
        self.disk = disk
        self.tracks = TrackManager(disk)
        self.boxer = Boxer(disk.track_size)
        self.table = ObjectTable()
        self.commit_manager = CommitManager(self.tracks)
        self.cache = ObjectCache(cache_capacity)
        self._member_columns = MemberColumns()
        #: a small LRU of raw track buffers: objects sharing a track
        #: (the Boxer's clustering) cost one read, not one each
        self._track_buffers: "OrderedDict[int, bytes]" = OrderedDict()
        self.track_buffer_capacity = 16
        self.archive_drive = ArchiveDrive()
        #: section -> where the current contents record says it is
        self._directory: dict[Any, ContentsEntry] = {}
        self._contents_tracks: list[int] = []
        #: the blob tracks a root of an earlier format lists, until this
        #: store's first commit moves every section into a contents record
        self._legacy_tracks: list[int] = []
        #: the catalog section's bytes (rewritten only when they change)
        self._catalog_blob: Optional[bytes] = None
        #: the note as the last root published it
        self.note: dict[str, bytes] = {}
        #: False on a platter whose root predates the note (an earlier
        #: format), until this store's first commit gives it one
        self.root_has_note = True
        self._next_oid = FIRST_USER_OID
        self._oid_lock = threading.Lock()
        #: the commit lock: one writer of the platter and the tables at a
        #: time (the Transaction Manager holds it across validate + apply)
        self.lock = threading.RLock()
        self.last_tx_time = 0
        #: well-known oids (world, system dictionary, directory catalog)
        self.catalog: dict[str, int] = {}
        #: oid -> decoded-but-not-recompiled OPAL method sources
        self.pending_method_sources: dict[int, list[tuple[str, str, str]]] = {}
        #: objects adopted since the last persist (commit in flight)
        self._resident_only: dict[int, GemObject] = {}
        #: class objects, pinned for the store's lifetime: their method
        #: dictionaries are memory state that an LRU eviction would lose
        self._resident_classes: dict[int, GemObject] = {}
        #: optional :class:`~repro.obs.Observability` (wired by GemStone)
        self.obs = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls,
        disk,
        cache_capacity: Optional[int] = None,
        prepare=None,
    ) -> "StableStore":
        """Initialize a fresh database on *disk*: bootstrap classes, commit.

        *prepare*, when given, runs against the store before the initial
        commit, so database-level setup (the world root, the system
        dictionary) lands in the same transaction time 1 as the kernel
        classes — user commits then start at time 2.
        """
        store = cls(disk, cache_capacity)
        store.last_tx_time = 1
        store._next_oid = 1
        store.bootstrap_classes()
        store._next_oid = max(store._next_oid, FIRST_USER_OID)
        for name, oid in store.classes.items():
            store.catalog[_CLASS_CATALOG_PREFIX + name] = oid
        if prepare is not None:
            prepare(store)
        dirty = [store._resident_only[oid] for oid in sorted(store._resident_only)]
        store.persist(dirty, tx_time=1)
        return store

    @classmethod
    def open(cls, disk, cache_capacity: Optional[int] = None) -> "StableStore":
        """Recover an existing database from *disk*.

        Raises :class:`RecoveryError` when the disk holds no valid root.
        """
        store = cls(disk, cache_capacity)
        fields = store.commit_manager.recover()
        store.last_tx_time = fields["last_tx_time"]
        store._next_oid = fields["next_oid"]
        store._alias_counter = fields["alias_counter"]
        legacy = "contents_tracks" not in fields  # a root that lists blobs
        if legacy:
            sections = store._legacy_sections(fields)
        else:
            store._contents_tracks = list(fields["contents_tracks"])
            store._directory, sections = read_contents(
                store._read_track_buffered, store._contents_tracks
            )
        store.root_has_note = not legacy or "note_tracks" in fields
        store._catalog_blob = sections["catalog"]
        store.catalog = decode_catalog(store._catalog_blob)
        store.note = decode_note(sections["note"]) if "note" in sections else {}
        for section, data in sections.items():
            if isinstance(section, int):
                store.table.load_page(data, store.tracks.track_count, dense=legacy)
        store.table.clear_dirty()
        store.tracks.mark_allocated(store._allocated())
        store._load_class_registry()
        return store

    def _legacy_sections(self, fields: dict[str, Any]) -> dict[Any, bytes]:
        """The sections of a root that lists blobs (``GSR3`` and before);
        their tracks stay allocated until the first commit replaces them."""
        tracks = self.tracks
        directory = decode_page_directory(read_blob(tracks, fields["object_table_tracks"]))
        sections: dict[Any, bytes] = {
            page: read_blob(tracks, page_tracks) for page, page_tracks in directory.items()
        }
        sections["catalog"] = read_blob(tracks, fields["catalog_tracks"])
        if fields.get("note_tracks"):
            sections["note"] = read_blob(tracks, fields["note_tracks"])
        for key in ("object_table_tracks", "allocation_tracks", "catalog_tracks", "note_tracks"):
            self._legacy_tracks.extend(fields.get(key, ()))
        for page_tracks in directory.values():
            self._legacy_tracks.extend(page_tracks)
        return sections

    def _allocated(self) -> set[int]:
        """Every track the current root reaches: the root slots, every
        track the object table references, every track a directory entry
        references (an older record still holding a live section), and
        the contents record's own.  Open takes it as the allocated set;
        a commit frees what it no longer holds."""
        reached = set(RESERVED_TRACKS)
        reached.update(self.table.tracks_in_use())
        for entry in self._directory.values():
            reached.update(entry.tracks)
        reached.update(self._contents_tracks)
        reached.update(self._legacy_tracks)
        return reached

    def _load_class_registry(self) -> None:
        for key, oid in self.catalog.items():
            if key.startswith(_CLASS_CATALOG_PREFIX):
                self.classes[key[len(_CLASS_CATALOG_PREFIX) :]] = oid

    # ------------------------------------------------------------------
    # ObjectStore primitives
    # ------------------------------------------------------------------

    def object(self, oid: int) -> GemObject:
        pinned = self._resident_classes.get(oid)
        if pinned is not None:
            return pinned
        cached = self.cache.get(oid)
        if cached is not None:
            return cached
        resident = self._resident_only.get(oid)
        if resident is not None:
            return resident
        return self._load(oid)

    def objects(self, oids: list[int]) -> list[GemObject]:
        cache = self.cache
        if cache.capacity is not None:
            # a load may evict what a later oid would have hit: the
            # order of the lookups is part of the answer
            return super().objects(oids)
        found = cache.get_hits(oids)
        if None in found:  # pinned classes, objects of a commit in flight, loads
            fetch = self.object
            return [
                fetch(oid) if obj is None else obj
                for oid, obj in zip(oids, found)
            ]
        return found

    def member_column(self, obj: GemObject, twins) -> Optional[MemberColumn]:
        """*obj*'s committed "now" member column, one for every session.

        The objects ``objects`` would give for *obj*'s live Refs, each
        counted as a cache hit — or ``None`` for the per-row path: a
        bounded cache (its lookup order is part of the answer), a small
        column, a value that is no Ref, a member not in the cache (a
        load, a pinned class, a dangling Ref) or one among *twins* (the
        oids a session holds twins of).  Rebuilt when *obj* changes or a
        cache entry leaves (an archived member, a flush).
        """
        cache = self.cache
        if cache.capacity is not None:
            return None
        # read before what they vouch for
        version, generation = obj.version, cache.generation
        column = self._member_columns.get(obj, generation)
        if column is None:
            if len(obj.elements) < MemberColumns.floor:
                return None
            values = obj.live_values(None)
            if set(map(type, values)) != {Ref}:
                return None
            oids = [value.oid for value in values]
            members = cache.peek(oids)
            if None in members:
                return None
            column = self._member_columns.put(MemberColumn(
                obj, version, generation, members, frozenset(oids),
                tuple(dict.fromkeys(map(_segment_of, members))), oids, {},
            ))
        if not twins.isdisjoint(column.oids):
            return None
        cache.hits += len(column.members)
        return column

    def value_column(
        self, column: MemberColumn, name: Any, posted: bool = False
    ) -> Optional[list | Postings]:
        """Element *name*'s "now" values for *column*'s members, one
        column for every session: ``element_column(column.members, name,
        None)``, built once and kept until an element of any object is
        written (:func:`~repro.core.objects.element_writes`) — or
        ``None`` once *column* is no longer its collection's current
        member column.  *posted* asks for the values' :class:`Postings`."""
        return self._member_columns.values(
            column, name, self.cache.generation, element_writes(), posted
        )

    def contains(self, oid: int) -> bool:
        return (
            oid in self._resident_classes
            or oid in self.cache
            or oid in self._resident_only
            or oid in self.table
        )

    def register(self, obj: GemObject) -> GemObject:
        """Adopt an object created directly on the stable store (bootstrap)."""
        return self.adopt(obj)

    def adopt(self, obj: GemObject) -> GemObject:
        """Take ownership of *obj*; it becomes durable at the next persist."""
        self._resident_only[obj.oid] = obj
        if isinstance(obj, GemClass):
            self._resident_classes[obj.oid] = obj
        else:
            self.cache.put(obj)
        return obj

    def allocate_oid(self) -> int:
        with self._oid_lock:
            oid = self._next_oid
            self._next_oid += 1
            return oid

    def write_time(self) -> int:
        return self.last_tx_time

    def current_time(self) -> int:
        return self.last_tx_time

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _load(self, oid: int) -> GemObject:
        location = self.table.get(oid)
        if location is None:
            raise NoSuchObject(oid)
        if location.archived:
            data = self.archive_drive.fetch(location.archive_key)
        else:
            data = self._read_record(oid, location.tracks)
        obj, sources = decode_object_full(data)
        if sources:
            self.pending_method_sources[oid] = sources
        if isinstance(obj, GemClass):
            self._resident_classes[oid] = obj
        else:
            self.cache.put(obj)
        return obj

    def _read_record(self, oid: int, track_numbers: Sequence[int]) -> bytes:
        return read_record(self._read_track_buffered, oid, track_numbers)

    def _read_track_buffered(self, track: int) -> bytes:
        buffered = self._track_buffers.get(track)
        if buffered is not None:
            self._track_buffers.move_to_end(track)
            return buffered
        image = self.tracks.read(track)
        self._track_buffers[track] = image
        while len(self._track_buffers) > self.track_buffer_capacity:
            self._track_buffers.popitem(last=False)
        return image

    def flush_caches(self) -> None:
        """Drop decoded objects and track buffers (benchmarks: cold reads)."""
        self.cache.flush()
        self._track_buffers.clear()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def persist(
        self,
        dirty_objects: Sequence[GemObject],
        tx_time: int,
        new_classes: dict[str, int] | None = None,
        deltas: Mapping[int, Delta] | None = None,
        note: Mapping[str, bytes] | None = None,
    ) -> int:
        """Make *dirty_objects* durable as one safe-written commit group.

        The caller (the Transaction Manager; :meth:`format` and
        :meth:`compact` for the store's own groups) has already merged
        the transaction via the Linker; objects arrive parent-first for
        clustering.  *deltas* (``Linker.deltas``) says,
        per oid, exactly what the transaction bound: an object whose
        record spans tracks then has those associations appended to its
        last fragment rather than being encoded again.  *note* updates
        the store's note in the same group (a name bound to ``b""`` is
        dropped); a persist of no objects publishes just that.  Returns
        the new root epoch.
        """
        obs = self.obs
        with self.lock:
            if obs is None or not obs.tracer.enabled:
                return self._persist(dirty_objects, tx_time, new_classes, deltas, note)
            with obs.tracer.span(
                "storage.persist", objects=len(dirty_objects), tx_time=tx_time
            ):
                return self._persist(dirty_objects, tx_time, new_classes, deltas, note)

    def _persist(
        self,
        dirty_objects: Sequence[GemObject],
        tx_time: int,
        new_classes: dict[str, int] | None = None,
        deltas: Mapping[int, Delta] | None = None,
        note: Mapping[str, bytes] | None = None,
    ) -> int:
        if new_classes:
            for name, oid in new_classes.items():
                self.classes[name] = oid
                self.catalog[_CLASS_CATALOG_PREFIX + name] = oid

        # 1. Boxer: encode and pack dirty objects into fresh tracks — whole
        #    records, or just the grown tail of one that spans tracks.
        records: list[tuple[int, bytes]] = []
        first_seq: dict[int, int] = {}
        for obj in dirty_objects:
            tail = self._grown_tail(obj, deltas, tx_time)
            if tail is None:
                records.append((obj.oid, encode_object(obj)))
            else:
                first_seq[obj.oid], payload = tail
                records.append((obj.oid, payload))
        pack = self.boxer.pack(records, first_seq)
        new_tracks = self.tracks.allocate(len(pack.images))
        previous = {oid: self.table.get(oid) for oid in pack.placements}
        published = self.commit_manager.current_epoch
        # what the store remembers of its sections moves with the root
        # flip: a group that fails must not leave it pointing at
        # unwritten tracks
        directory, contents_tracks = self._directory, self._contents_tracks
        try:
            for oid, spots in pack.placements.items():
                old = previous[oid]
                kept: tuple[int, ...] = ()
                if old is not None and not old.archived:
                    kept = old.tracks[: first_seq.get(oid, 0)]
                self.table.set_tracks(oid, [*kept, *(new_tracks[i] for i in spots)])

            # 2. The sections this commit changed: the table pages it
            #    moved, the catalog and the note if their bytes differ.  A
            #    store with no contents record yet (formatting, or the
            #    first commit on a platter of an earlier format) writes
            #    every section.
            everything = not self._directory
            pages = self.table.pages() if everything else self.table.dirty_pages()
            changed: dict[Any, bytes] = {
                page: self.table.encode_page(page) for page in sorted(pages)
            }
            catalog_blob = self._catalog_blob
            if new_classes or everything:
                catalog_blob = encode_catalog(self.catalog)
                if everything or catalog_blob != self._catalog_blob:
                    changed["catalog"] = catalog_blob
            new_note = self.note
            if note:
                new_note = {
                    name: data
                    for name, data in {**self.note, **note}.items()
                    if data
                }
            if new_note and (everything or new_note != self.note):
                changed["note"] = encode_note(new_note)
            dropped = not new_note and "note" in self._directory

            # 3. The contents record, packed behind the object records
            #    (the page entries it holds name their tracks, numbered
            #    above).
            if changed or dropped:
                directory = dict(directory)
                if dropped:
                    del directory["note"]
                contents_tracks = pack_contents(
                    self.tracks, self.boxer, pack, new_tracks, directory, changed
                )
            writes = dict(zip(new_tracks, pack.images))

            # 4. Commit Manager: safe-write the whole group, flip the root.
            self.last_tx_time = max(self.last_tx_time, tx_time)
            return self.commit_manager.commit(
                writes,
                {
                    "last_tx_time": self.last_tx_time,
                    "next_oid": self._next_oid,
                    "alias_counter": self._alias_counter,
                    "contents_tracks": contents_tracks,
                },
            )
        finally:
            # 5. Once the root is durable — even if shipping it to a
            #    replica then failed — the store is what it says, and
            #    every track no root reaches goes back.  Until then the
            #    old root is the durable one: the table goes back to what
            #    it names, and only this group's own tracks return.
            if self.commit_manager.current_epoch != published:
                self._directory, self._contents_tracks = directory, contents_tracks
                self._catalog_blob = catalog_blob
                self.note = new_note
                self.root_has_note = True
                self._legacy_tracks = []
                for track in writes:
                    self._track_buffers.pop(track, None)  # no stale buffers
                self.table.clear_dirty()
                for obj in dirty_objects:
                    self._resident_only.pop(obj.oid, None)
                    self.cache.put(obj)
                self.tracks.release(self.tracks.allocated_tracks() - self._allocated())
            else:
                for oid, location in previous.items():
                    self.table.restore(oid, location)
                self.tracks.release(set(new_tracks) - self._allocated())

    def _grown_tail(
        self, obj: GemObject, deltas: Mapping[int, Delta] | None, tx_time: int
    ) -> Optional[tuple[int, bytes]]:
        """``(seq, payload)`` of *obj*'s last fragment with its delta appended.

        ``None`` when the record has to be written whole: no delta, no
        record yet, a record that fits one track (rewriting it costs the
        same track), bindings at *tx_time* the delta does not hold, or a
        class — its record also holds the instance variable names and
        method sources, which change without a binding to show for it.
        """
        delta = deltas.get(obj.oid) if deltas else None
        if (
            delta is None
            or obj.version != delta.version
            or isinstance(obj, GemClass)
        ):
            return None
        location = self.table.get(obj.oid)
        if location is None or len(location.tracks) < 2:
            return None
        seq = len(location.tracks) - 1
        image = self._read_track_buffered(location.tracks[seq])
        tail = find_fragment(image, obj.oid, seq).payload
        return seq, tail + encode_appends(delta.bindings, tx_time)

    # ------------------------------------------------------------------
    # enumeration (DBA tooling)
    # ------------------------------------------------------------------

    def all_oids(self):
        """Every on-disk oid plus commit-in-flight residents."""
        seen = set(self.table.oids()) | set(self._resident_only)
        return iter(sorted(seen))

    def instances_of(self, gem_class):
        """Iterate all instances of a class (subclasses included).

        Loads every non-archived object: a DBA-scale scan, matching the
        paper's administrator tooling rather than a query path (queries
        use directories).
        """
        cls = self._coerce_class(gem_class)
        for oid in self.all_oids():
            location = self.table.get(oid)
            if location is not None and location.archived:
                continue
            obj = self.object(oid)
            if self.object(obj.class_oid).is_subclass_of(self, cls):
                yield obj

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self, root_oids: Sequence[int] = ()) -> int:
        """Rewrite every on-disk object into fresh, clustered tracks.

        Shadow paging never overwrites live tracks, so long-lived tracks
        accumulate superseded copies next to still-live residents.  A
        compaction pass re-boxes everything: objects reachable from
        *root_oids* (default: the catalog's well-known objects) go first
        in parent-first order — restoring the Boxer's clustering — and
        unreachable objects follow (no GC: they are rewritten, never
        dropped).  Archived objects keep their archive locations.  The
        group binds nothing, so it takes no new transaction time.

        Returns the number of tracks reclaimed.
        """
        with self.lock:
            roots = list(root_oids) or [
                oid for oid in self.catalog.values() if isinstance(oid, int)
            ]
            order = self._compaction_order(roots)
            objects = [self.object(oid) for oid in order]
            before = len(self.tracks.allocated_tracks())
            self.persist(objects, self.last_tx_time)
            return before - len(self.tracks.allocated_tracks())

    def _compaction_order(self, roots: Sequence[int]) -> list[int]:
        on_disk = {
            oid
            for oid in self.table.oids()
            if not self.table.get(oid).archived
        }
        ordered: list[int] = []
        seen: set[int] = set()
        stack = [oid for oid in roots if oid in on_disk]
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            ordered.append(oid)
            children = [
                child
                for child in self.object(oid).referenced_oids()
                if child in on_disk and child not in seen
            ]
            stack.extend(reversed(children))
        for oid in sorted(on_disk - seen):  # unreachable: kept, unclustered
            ordered.append(oid)
        return ordered

    # ------------------------------------------------------------------
    # archival
    # ------------------------------------------------------------------

    def archive_object(self, oid: int, media: ArchiveMedia) -> int:
        """Move an object's record to *media*; returns its archive key.

        The object stays conceptually in the database (its oid and the
        references to it remain); reading it requires the volume to be
        mounted.  The table change becomes durable at the next commit,
        which is also what frees the record's tracks.
        """
        with self.lock:
            location = self.table.get(oid)
            if location is None:
                raise NoSuchObject(oid)
            if location.archived:
                raise ArchiveError(f"oid {oid} is already archived")
            data = self._read_record(oid, location.tracks)
            key = media.store(data)
            self.table.set_archived(oid, key)
            self.cache.evict(oid)
            return key

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def storage_report(self) -> dict[str, Any]:
        """Occupancy snapshot for DBA tooling and benchmarks.

        Besides occupancy, the report walks the disk wrapper chain
        (resilience, fault injection, replication — whatever is stacked
        under this store) and surfaces each layer's health counters, so
        a DBA can see masked retries, degradation, and per-replica
        failure/repair totals without reaching into the stack.
        """
        report = {
            "epoch": self.commit_manager.current_epoch,
            "last_tx_time": self.last_tx_time,
            "objects": len(self.table),
            "tracks_allocated": len(self.tracks.allocated_tracks()),
            "tracks_free": self.tracks.free_count(),
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_evictions": self.cache.evictions,
            "cache_hit_rate": self.cache.hit_rate,
        }
        report.update(_disk_health(self.disk))
        return report


def _disk_health(disk: Any) -> dict[str, Any]:
    """Flattened health counters from every layer of a disk stack.

    Layers are duck-typed by their counters, not imported by class —
    the storage package must not depend on ``repro.faults``.  The walk
    follows ``.inner`` through single-disk wrappers and fans out over
    ``.replicas``/``.health`` at a replicated volume.
    """
    health: dict[str, Any] = {}
    layer = disk
    while layer is not None:
        if hasattr(layer, "max_retries") and hasattr(layer, "backoff_time"):
            # the resilience layer: bounded retry + read-only degradation
            health["resilience_retries"] = layer.retries
            health["resilience_backoff_time"] = layer.backoff_time
            health["resilience_degraded"] = bool(layer.degraded)
        elif hasattr(layer, "transient_errors") and hasattr(layer, "plan"):
            # the fault-injection layer: what was actually thrown at us
            health["faults_transient"] = layer.transient_errors
            health["faults_rotted_tracks"] = layer.rotted_tracks
            health["faults_delays"] = layer.delays
        if hasattr(layer, "replicas") and hasattr(layer, "health"):
            health["replication_repairs"] = layer.repairs
            health["replication_stale_repairs"] = layer.stale_repairs
            for index, replica in enumerate(layer.health):
                prefix = f"replica{index}"
                health[f"{prefix}_write_failures"] = replica.write_failures
                health[f"{prefix}_read_failures"] = replica.read_failures
                health[f"{prefix}_repairs"] = replica.repairs
            break  # replicas are leaf SimulatedDisks; nothing below
        layer = getattr(layer, "inner", None)
    return health
