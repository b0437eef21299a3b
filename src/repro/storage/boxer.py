"""The Boxer: fitting encoded object records into tracks.

Section 6: "The Linker is called by the Boxer, whose job it is to fit
objects into tracks after database changes."

A track image is a sequence of *fragment entries* terminated by a zero
byte:

    entry := uvarint(oid + 1)  uvarint(frag_seq)  uvarint(frag_total)
             uvarint(payload_length)  payload-bytes
    image := entry* 0x00 padding

Small objects share tracks (clustering); an object larger than one
track's capacity is split into fragments spread over several tracks, so
"only the size of secondary storage" limits object size (design goal B) —
unlike ST80's 64KB ceiling.  The Boxer packs records *in the order given*:
the Linker orders dirty objects parent-first along their primary logical
path, so physical access paths parallel logical access for tree data
(section 6).

A record that spans tracks grows at its end: the store re-packs only
the record's *last* fragment with the commit's associations appended,
and every earlier fragment stays on its track.  Two consequences for
readers: ``frag_total`` is what the record had when the fragment was
written (advisory — the object table's placements say how many there
are now), and a sealed track may keep a superseded later fragment of
the same oid, so fragment *i* is read from track *i* of the placements.

The store's own tables ride the same tracks: each commit's contents
record (oid 0, which no object has) is packed right behind its object
records, into the last of their images while it fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ..errors import CodecError, TrackOverflow
from .codec import Reader, Writer


@dataclass(frozen=True)
class Fragment:
    """One fragment of an object's encoded record."""

    oid: int
    seq: int
    total: int
    payload: bytes


@dataclass
class PackResult:
    """Outcome of a packing pass.

    ``images`` are new track payloads indexed 0..n-1 (the caller maps
    these local indexes onto allocated track numbers); ``placements``
    maps each oid to the local indexes of its fragments in order.
    """

    images: list[bytes]
    placements: dict[int, list[int]]


def _entry_header(oid: int, seq: int, total: int, payload_len: int) -> bytes:
    writer = Writer()
    writer.uvarint(oid + 1)
    writer.uvarint(seq)
    writer.uvarint(total)
    writer.uvarint(payload_len)
    return writer.getvalue()


def entry_size(oid: int, seq: int, total: int, payload_len: int) -> int:
    """Exact bytes an entry occupies in a track image."""
    return len(_entry_header(oid, seq, total, payload_len)) + payload_len


class TrackImageBuilder:
    """Accumulates fragment entries for one track."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._writer = Writer()

    @property
    def used(self) -> int:
        """Bytes consumed, including the terminator to come."""
        return len(self._writer) + 1

    @property
    def room(self) -> int:
        """Bytes still available for entries."""
        return self.capacity - self.used

    @property
    def empty(self) -> bool:
        """True if no entry has been added."""
        return len(self._writer) == 0

    def fits(self, oid: int, seq: int, total: int, payload_len: int) -> bool:
        """True if an entry of this shape would fit."""
        return entry_size(oid, seq, total, payload_len) <= self.room

    def add(self, fragment: Fragment) -> None:
        """Append a fragment entry."""
        size = entry_size(
            fragment.oid, fragment.seq, fragment.total, len(fragment.payload)
        )
        if size > self.room:
            raise TrackOverflow(
                f"fragment of oid {fragment.oid} needs {size} bytes, "
                f"{self.room} free"
            )
        self._writer.uvarint(fragment.oid + 1)
        self._writer.uvarint(fragment.seq)
        self._writer.uvarint(fragment.total)
        self._writer.uvarint(len(fragment.payload))
        self._writer.raw(fragment.payload)

    def resume(self, image: bytes) -> None:
        """Reopen an image :meth:`finish` sealed, to add more entries."""
        self._writer.raw(image[:-1])

    def finish(self) -> bytes:
        """The final track payload, zero-terminated."""
        return self._writer.getvalue() + b"\x00"


def read_entries(image: bytes) -> Iterator[Fragment]:
    """Parse all fragment entries from a track image."""
    reader = Reader(image)
    while reader.remaining() > 0:
        marker = reader.uvarint()
        if marker == 0:
            return
        oid = marker - 1
        seq = reader.uvarint()
        total = reader.uvarint()
        length = reader.uvarint()
        yield Fragment(oid, seq, total, reader.raw(length))


def find_fragment(image: bytes, oid: int, seq: int) -> Fragment:
    """Locate one object's fragment in a track image."""
    for fragment in read_entries(image):
        if fragment.oid == oid and fragment.seq == seq:
            return fragment
    raise CodecError(f"track image has no fragment {seq} of oid {oid}")


class Boxer:
    """Packs encoded records into track images, splitting large ones."""

    #: conservative per-fragment header allowance when splitting
    _HEADER_ALLOWANCE = 24

    def __init__(self, track_size: int) -> None:
        if track_size <= self._HEADER_ALLOWANCE + 1:
            raise ValueError(f"track size {track_size} is too small to box into")
        self.track_size = track_size

    def max_payload(self) -> int:
        """Largest single-fragment payload guaranteed to fit in a track."""
        return self.track_size - self._HEADER_ALLOWANCE - 1

    def split(self, oid: int, data: bytes, first_seq: int = 0) -> list[Fragment]:
        """Split *data* into fragments no larger than a track.

        *data* is a whole record, or (``first_seq`` > 0) the grown tail
        of one whose fragments before *first_seq* stay where they are.
        """
        chunk = self.max_payload()
        pieces = [data[i : i + chunk] for i in range(0, len(data), chunk)] or [data]
        total = first_seq + len(pieces)
        return [
            Fragment(oid, seq, total, piece)
            for seq, piece in enumerate(pieces, first_seq)
        ]

    def pack(
        self,
        records: Sequence[tuple[int, bytes]],
        first_seq: Optional[Mapping[int, int]] = None,
    ) -> PackResult:
        """Pack (oid, encoded-record) pairs into track images, in order.

        First-fit in arrival order: consecutive records share a track
        while they fit, so the Linker's parent-first ordering yields the
        paper's physical/logical path parallelism.  Multi-fragment
        objects occupy consecutive images.  An oid in *first_seq* brings
        only its record's tail, numbered from that fragment on; its
        placements then cover those fragments alone.
        """
        return self.pack_into(PackResult(images=[], placements={}), records, first_seq)

    def pack_into(
        self,
        result: PackResult,
        records: Sequence[tuple[int, bytes]],
        first_seq: Optional[Mapping[int, int]] = None,
    ) -> PackResult:
        """:meth:`pack` *records* behind *result*'s, starting in its last
        image while they fit: the store numbers a commit's data tracks
        first, then packs the contents record that names them behind."""
        first_seq = first_seq or {}
        images, placements = result.images, result.placements
        builder = TrackImageBuilder(self.track_size)
        if images:
            builder.resume(images.pop())

        def flush() -> None:
            nonlocal builder
            if not builder.empty:
                images.append(builder.finish())
                builder = TrackImageBuilder(self.track_size)

        for oid, data in records:
            if oid in placements:
                raise CodecError(f"oid {oid} packed twice in one group")
            fragments = self.split(oid, data, first_seq.get(oid, 0))
            spots: list[int] = []
            for fragment in fragments:
                if not builder.fits(
                    fragment.oid, fragment.seq, fragment.total, len(fragment.payload)
                ):
                    flush()
                spots.append(len(images))  # index this fragment will land in
                builder.add(fragment)
            placements[oid] = spots
        flush()
        return result


def assemble(fragments: Sequence[Fragment], count: int) -> bytes:
    """Reassemble an object's encoded record from its *count* fragments.

    *count* is the length of the record's placements; a fragment's
    ``total`` is not consulted — it stops being true once the record
    has grown.
    """
    ordered = sorted(fragments, key=lambda f: f.seq)
    if not ordered:
        raise CodecError("no fragments to assemble")
    if [f.seq for f in ordered] != list(range(count)):
        raise CodecError(
            f"incomplete fragment chain for oid {ordered[0].oid}: "
            f"have {[f.seq for f in ordered]} of {count}"
        )
    return b"".join(f.payload for f in ordered)
