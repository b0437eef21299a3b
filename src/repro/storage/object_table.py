"""The global object table: oid → physical location.

Section 6: "other references to the object use a global object-oriented
pointer (GOOP).  The GOOP is resolved through a global object table to
get the primary logical path to the object, from which its physical
access path can be deduced."

In this reproduction the table maps each oid directly to the ordered list
of tracks holding its record's fragments — or to an archive key once a
database administrator has moved the object to other media (section 6's
"explicitly move objects to other media, such as tape").

The table is paged: a page covers :data:`PAGE_SPAN` consecutive oids and
serializes independently, so a commit rewrites only the pages its
transaction touched — each a section of that commit's contents record
(``docs/storage.md``).  A page keeps its entries encoded, so moving one
entry re-encodes that entry and not the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import CodecError, StorageError
from .codec import Reader, uvarint_bytes

#: oids covered by one object-table page
PAGE_SPAN = 256

_KIND_ABSENT = 0
_KIND_TRACKS = 1
_KIND_ARCHIVED = 2

_TRACKS = bytes((_KIND_TRACKS,))
_ARCHIVED = bytes((_KIND_ARCHIVED,))

#: track numbers below this (the 1- and 2-byte uvarints) have their
#: encodings memoised; a larger one is encoded where it is named
_VARINT_MEMO = 1 << 14


@dataclass(frozen=True)
class Location:
    """Where an object's record lives.

    Exactly one of ``tracks`` (on-disk fragments, in order) and
    ``archive_key`` (moved to other media) is set.
    """

    tracks: tuple[int, ...] = ()
    archive_key: Optional[int] = None

    @property
    def archived(self) -> bool:
        """True if the object has been moved off-line."""
        return self.archive_key is not None


class ObjectTable:
    """In-memory paged map from oid to :class:`Location`."""

    def __init__(self) -> None:
        self._entries: dict[int, Location] = {}
        self._dirty_pages: set[int] = set()
        #: track -> number of entries whose fragments live there
        self._track_refs: dict[int, int] = {}
        #: page -> its PAGE_SPAN slots, each entry encoded (b"": absent)
        self._pages: dict[int, list[bytes]] = {}
        #: every track number's uvarint up to the highest yet placed
        #: (below ``_VARINT_MEMO``), so an entry encodes in one join
        self._track_varints: list[bytes] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    # -- access ----------------------------------------------------------------

    def get(self, oid: int) -> Optional[Location]:
        """The location of *oid*, or None if the table has no entry."""
        return self._entries.get(oid)

    def set_tracks(self, oid: int, tracks: Sequence[int]) -> None:
        """Record that *oid*'s fragments live on *tracks*, in order."""
        if not tracks:
            raise StorageError(f"oid {oid} needs at least one track")
        self._set(oid, Location(tracks=tuple(tracks)))

    def set_archived(self, oid: int, archive_key: int) -> None:
        """Record that *oid* was moved to other media under *archive_key*."""
        self._set(oid, Location(archive_key=archive_key))

    def restore(self, oid: int, location: Optional[Location]) -> None:
        """Put back an entry as :meth:`get` returned it (``None``: none)."""
        self._set(oid, location)

    def _set(self, oid: int, location: Optional[Location]) -> None:
        # the reference counts move by the tracks that differ: a grown
        # record keeps all but its tail, whatever its length
        old = self._entries.get(oid)
        before = set(old.tracks) if old is not None else set()
        after = set(location.tracks) if location is not None else set()
        refs = self._track_refs
        for track in before - after:
            count = refs[track] - 1
            if count:
                refs[track] = count
            else:
                del refs[track]
        for track in after - before:
            refs[track] = refs.get(track, 0) + 1
        if location is None:
            self._entries.pop(oid, None)
        else:
            self._entries[oid] = location
        page, slot = divmod(oid, PAGE_SPAN)
        entries = self._pages.get(page)
        if entries is None:
            entries = self._pages[page] = [b""] * PAGE_SPAN
        entries[slot] = self._encode_entry(slot, location)
        self._dirty_pages.add(page)

    def oids(self) -> Iterator[int]:
        """All oids with entries."""
        return iter(tuple(self._entries))

    def tracks_in_use(self) -> set[int]:
        """Every track referenced by any on-disk entry."""
        return set(self._track_refs)

    def track_is_used(self, track: int) -> bool:
        """True if any entry still references *track*."""
        return track in self._track_refs

    # -- pages --------------------------------------------------------------------

    def pages(self) -> set[int]:
        """Every page that has held an entry."""
        return set(self._pages)

    def dirty_pages(self) -> set[int]:
        """Pages changed since the last :meth:`clear_dirty`."""
        return set(self._dirty_pages)

    def clear_dirty(self) -> None:
        """Forget dirty-page tracking (after a successful commit)."""
        self._dirty_pages.clear()

    def encode_page(self, page: int) -> bytes:
        """Serialize one page: entries for oids in [page*SPAN, …+SPAN).

        ``uvarint(page)``, then for each oid with an entry, ascending,
        ``uvarint(slot)`` and ``1 uvarint(n) track*`` or ``2 archive_key``
        — the kept encodings, joined.  An absent oid costs nothing.
        """
        entries = self._pages.get(page)
        return uvarint_bytes(page) + (b"".join(entries) if entries else b"")

    def _encode_entry(self, slot: int, location: Optional[Location]) -> bytes:
        """One page entry, as :meth:`encode_page` lays it down."""
        if location is None:
            return b""
        if location.archive_key is not None:
            return b"".join((uvarint_bytes(slot), _ARCHIVED, uvarint_bytes(location.archive_key)))
        tracks, varints = location.tracks, self._track_varints
        top = max(tracks)
        if top >= len(varints) < _VARINT_MEMO:
            varints.extend(map(uvarint_bytes, range(len(varints), min(top + 1, _VARINT_MEMO))))
        encode = varints.__getitem__ if top < len(varints) else uvarint_bytes
        return b"".join((
            uvarint_bytes(slot), _TRACKS, uvarint_bytes(len(tracks)), *map(encode, tracks),
        ))

    def load_page(self, data: bytes, track_count: int, dense: bool = False) -> int:
        """Merge a serialized page into the table; returns its page index.

        An entry must name at least one track, each below *track_count*.
        *dense* reads the page of a platter written before the contents
        record: no slot numbers, every slot in order, ``0`` for absent.
        """
        reader = Reader(data)
        page = reader.uvarint()
        slot = -1
        while (slot + 1 < PAGE_SPAN) if dense else reader.remaining():
            following = slot + 1 if dense else reader.uvarint()
            if not slot < following < PAGE_SPAN:
                raise CodecError(f"object-table page {page}: slot {following} out of order")
            slot = following
            kind = reader.uvarint()
            if kind == _KIND_ABSENT:
                location = None
            elif kind == _KIND_TRACKS:
                tracks = tuple(reader.uvarint() for _ in range(reader.uvarint()))
                if not tracks or max(tracks) >= track_count:
                    raise CodecError(
                        f"object-table page {page}: slot {slot} names no track"
                        f" or one past the disk's {track_count}"
                    )
                location = Location(tracks=tracks)
            elif kind == _KIND_ARCHIVED:
                location = Location(archive_key=reader.uvarint())
            else:
                raise CodecError(f"unknown object-table entry kind {kind}")
            self._set(page * PAGE_SPAN + slot, location)
        self._dirty_pages.discard(page)
        return page


def decode_page_directory(data: bytes) -> dict[int, tuple[int, ...]]:
    """The page directory (page index → tracks of its blob) of a platter
    written before the contents record; read only by the legacy open."""
    reader = Reader(data)
    count = reader.uvarint()
    directory: dict[int, tuple[int, ...]] = {}
    for _ in range(count):
        page = reader.uvarint()
        n_tracks = reader.uvarint()
        directory[page] = tuple(reader.uvarint() for _ in range(n_tracks))
    return directory
