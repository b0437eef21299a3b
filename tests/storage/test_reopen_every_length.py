"""Every record length reopens: pack → persist → reopen cold → read back.

ROADMAP item 1, finding (e): a record whose last fragment is tiny shares
that fragment's track with the one before it, so the Boxer's placements
name the track twice; a reader that visits it twice collects the same
fragments twice and the first cold read after reopen fails with
``incomplete fragment chain``.  Recovery must not depend on the exact
size of the record any more than on the exact time of the failure, so
this sweeps *every* length from one byte to four tracks' worth, at both
track sizes the repo uses, each record packed behind a small neighbour.

A record that spans tracks then *grows at its end*: a commit re-packs
only its last fragment with the new associations appended.  The second
half sweeps every append length across one, two and three fragment
boundaries the same way, comparing a cold reopen with the live store
after every commit — which pins the shape that growth adds to finding
(e): a sealed track that keeps a superseded later fragment.
"""

from string import ascii_lowercase
from types import SimpleNamespace

import pytest

from repro.core import GemObject
from repro.dr.verify import logical_diff
from repro.storage import (
    Boxer,
    Creation,
    DiskGeometry,
    Linker,
    SimulatedDisk,
    StableStore,
    Write,
    read_entries,
)
from repro.storage.codec import encode_appends

#: lengths committed (and then read back cold) per store
BATCH = 128


def _doc(length: int) -> str:
    """A string of *length* whose content depends on position and length."""
    offset = length % 26
    return (ascii_lowercase * (length // 26 + 2))[offset : offset + length]


def test_the_recorded_placement_repeats_a_track():
    # the shape behind finding (e), pinned so the sweep below keeps
    # covering it: two full fragments, then five bytes that fit beside
    # the second
    boxer = Boxer(512)
    packed = boxer.pack([(7, bytes(boxer.max_payload() * 2 + 5))])
    assert packed.placements[7] == [0, 1, 1]


@pytest.mark.parametrize("track_size", [512, 4096])
def test_every_record_length_reopens_cold(track_size):
    lengths = range(1, 4 * track_size + 1)
    for start in range(lengths.start, lengths.stop, BATCH):
        batch = range(start, min(start + BATCH, lengths.stop))
        disk = SimulatedDisk(
            DiskGeometry(track_count=6 * BATCH + 64, track_size=track_size)
        )
        store = StableStore.format(disk)
        creations, writes, expected = [], [], {}
        for length in batch:
            neighbour, sized = (
                GemObject(
                    oid=store.allocate_oid(), class_oid=store.classes["Object"]
                )
                for _ in range(2)
            )
            creations += [Creation(neighbour), Creation(sized)]
            writes += [
                Write(neighbour.oid, "n", length),
                Write(sized.oid, "doc", _doc(length)),
            ]
            expected[sized.oid] = (neighbour.oid, length)
        tx_time = store.last_tx_time + 1
        store.persist(Linker(store).incorporate(creations, writes, tx_time), tx_time)

        reopened = StableStore.open(disk)  # cold: nothing cached, all from tracks
        for oid, (neighbour_oid, length) in expected.items():
            assert reopened.object(oid).value("doc") == _doc(length), (
                f"track size {track_size}: a {length}-char record did not "
                "read back after reopen"
            )
            assert reopened.object(neighbour_oid).value("n") == length


# -- records that grow at their end ------------------------------------------


def _commit(store, creations, writes):
    """One transaction the way the Transaction Manager runs it: link,
    then persist with the Linker's deltas."""
    linker = Linker(store)
    tx_time = store.last_tx_time + 1
    dirty = linker.incorporate(creations, writes, tx_time)
    store.persist(dirty, tx_time, deltas=linker.deltas)


def _assert_reopens_as_live(store, disk, why):
    reopened = SimpleNamespace(store=StableStore.open(disk))
    assert logical_diff(SimpleNamespace(store=store), reopened) == [], why


def test_an_append_leaves_a_superseded_fragment_on_a_sealed_track():
    # the shape the reader has to survive, pinned so the sweep below keeps
    # covering it: a spill of five bytes lands beside the fragment it
    # sealed; the next append moves those five bytes on, and the sealed
    # track keeps its copy
    disk = SimulatedDisk(DiskGeometry(track_count=256, track_size=512))
    store = StableStore.format(disk)
    room = store.boxer.max_payload()
    obj = GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])
    _commit(store, [Creation(obj)], [Write(obj.oid, "doc", _doc(room + 40))])
    tail = len(store._read_record(obj.oid, store.table.get(obj.oid).tracks)) - room
    framing = len(encode_appends([("grow", "")], store.last_tx_time + 1))
    _commit(store, [], [Write(obj.oid, "grow", _doc(room - tail - framing + 5))])
    first, sealed, spilled = store.table.get(obj.oid).tracks
    assert sealed == spilled and first != sealed

    _commit(store, [], [Write(obj.oid, "more", 1)])
    tracks = store.table.get(obj.oid).tracks
    assert tracks[:2] == (first, sealed) and tracks[2] != sealed
    on_sealed = [(f.oid, f.seq) for f in read_entries(disk.read_track(sealed))]
    assert on_sealed == [(obj.oid, 1), (obj.oid, 2)]  # seq 2 there is stale
    _assert_reopens_as_live(store, disk, "the stale fragment was read")


@pytest.mark.parametrize("track_size", [512, 4096])
def test_every_append_length_reopens_cold(track_size):
    """Grow a two-fragment record by one append of every length that ends
    in its second, third, fourth or fifth fragment, then by a small one,
    beside a neighbour that is rewritten whole; after each commit a cold
    reopen must read every object exactly as the live store has it."""
    room = Boxer(track_size).max_payload()
    lengths = range(1, 3 * room + 64)
    for start in range(lengths.start, lengths.stop, BATCH):
        batch = range(start, min(start + BATCH, lengths.stop))
        disk = SimulatedDisk(
            DiskGeometry(track_count=12 * BATCH + 64, track_size=track_size)
        )
        store = StableStore.format(disk)
        pairs = [
            tuple(
                GemObject(oid=store.allocate_oid(), class_oid=store.classes["Object"])
                for _ in range(2)
            )
            for _ in batch
        ]
        _commit(
            store,
            [Creation(obj) for pair in pairs for obj in pair],
            [
                write
                for neighbour, sized in pairs
                for write in (
                    Write(neighbour.oid, "n", 0),
                    Write(sized.oid, "doc", _doc(room + 40)),
                )
            ],
        )
        for step, grow in enumerate((lambda length: _doc(length), lambda _: 1)):
            _commit(
                store,
                [],
                [
                    write
                    for (neighbour, sized), length in zip(pairs, batch)
                    for write in (
                        Write(neighbour.oid, "n", length),
                        Write(sized.oid, f"grow{step}", grow(length)),
                    )
                ],
            )
            _assert_reopens_as_live(
                store, disk,
                f"track size {track_size}, appends of {batch.start}..{batch.stop - 1} "
                f"chars, commit {step + 2}",
            )
        spans = {len(store.table.get(sized.oid).tracks) for _, sized in pairs}
        assert min(spans) >= 2 and max(spans) <= 5
