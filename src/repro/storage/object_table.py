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
transaction touched (shadow-written like any other track).  A small page
directory (page index → track) is persisted in whole tracks referenced
from the root record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import CodecError, StorageError
from .codec import Reader, Writer

#: oids covered by one object-table page
PAGE_SPAN = 256

_KIND_ABSENT = 0
_KIND_TRACKS = 1
_KIND_ARCHIVED = 2


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

    def _set(self, oid: int, location: Optional[Location]) -> None:
        old = self._entries.get(oid)
        if old is not None:
            for track in set(old.tracks):
                count = self._track_refs.get(track, 0) - 1
                if count <= 0:
                    self._track_refs.pop(track, None)
                else:
                    self._track_refs[track] = count
        if location is None:
            self._entries.pop(oid, None)
        else:
            self._entries[oid] = location
            for track in set(location.tracks):
                self._track_refs[track] = self._track_refs.get(track, 0) + 1
        self._dirty_pages.add(self.page_of(oid))

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

    @staticmethod
    def page_of(oid: int) -> int:
        """The page index covering *oid*."""
        return oid // PAGE_SPAN

    def dirty_pages(self) -> set[int]:
        """Pages changed since the last :meth:`clear_dirty`."""
        return set(self._dirty_pages)

    def clear_dirty(self) -> None:
        """Forget dirty-page tracking (after a successful commit)."""
        self._dirty_pages.clear()

    def encode_page(self, page: int) -> bytes:
        """Serialize one page: entries for oids in [page*SPAN, …+SPAN).

        Every field is a uvarint, nearly always of one byte, and a commit
        re-encodes a whole page to move one entry — so the bytes are put
        down here directly rather than through a :class:`Writer` call each.
        """
        out = bytearray()
        _uvarint(out, page)
        entries = self._entries
        base = page * PAGE_SPAN
        for oid in range(base, base + PAGE_SPAN):
            location = entries.get(oid)
            if location is None:
                out.append(_KIND_ABSENT)
            elif location.archive_key is not None:
                out.append(_KIND_ARCHIVED)
                _uvarint(out, location.archive_key)
            else:
                out.append(_KIND_TRACKS)
                _uvarint(out, len(location.tracks))
                for track in location.tracks:
                    _uvarint(out, track)
        return bytes(out)

    def load_page(self, data: bytes) -> int:
        """Merge a serialized page into the table; returns its page index."""
        reader = Reader(data)
        page = reader.uvarint()
        base = page * PAGE_SPAN
        for oid in range(base, base + PAGE_SPAN):
            kind = reader.uvarint()
            if kind == _KIND_ABSENT:
                self._set(oid, None)
            elif kind == _KIND_TRACKS:
                count = reader.uvarint()
                tracks = tuple(reader.uvarint() for _ in range(count))
                self._set(oid, Location(tracks=tracks))
            elif kind == _KIND_ARCHIVED:
                self._set(oid, Location(archive_key=reader.uvarint()))
            else:
                raise CodecError(f"unknown object-table entry kind {kind}")
        self._dirty_pages.discard(page)
        return page


def _uvarint(out: bytearray, value: int) -> None:
    """Append *value* as :meth:`Writer.uvarint` would."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def encode_page_directory(directory: dict[int, tuple[int, ...]]) -> bytes:
    """Serialize the page directory (page index → tracks of its blob)."""
    writer = Writer()
    writer.uvarint(len(directory))
    for page in sorted(directory):
        writer.uvarint(page)
        tracks = directory[page]
        writer.uvarint(len(tracks))
        for track in tracks:
            writer.uvarint(track)
    return writer.getvalue()


def decode_page_directory(data: bytes) -> dict[int, tuple[int, ...]]:
    """Deserialize :func:`encode_page_directory` output."""
    reader = Reader(data)
    count = reader.uvarint()
    directory: dict[int, tuple[int, ...]] = {}
    for _ in range(count):
        page = reader.uvarint()
        n_tracks = reader.uvarint()
        directory[page] = tuple(reader.uvarint() for _ in range(n_tracks))
    return directory
