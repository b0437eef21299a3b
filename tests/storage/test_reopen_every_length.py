"""Every record length reopens: pack → persist → reopen cold → read back.

ROADMAP item 1, finding (e): a record whose last fragment is tiny shares
that fragment's track with the one before it, so the Boxer's placements
name the track twice; a reader that visits it twice collects the same
fragments twice and the first cold read after reopen fails with
``incomplete fragment chain``.  Recovery must not depend on the exact
size of the record any more than on the exact time of the failure, so
this sweeps *every* length from one byte to four tracks' worth, at both
track sizes the repo uses, each record packed behind a small neighbour.
"""

from string import ascii_lowercase

import pytest

from repro.core import GemObject
from repro.storage import (
    Boxer,
    Creation,
    DiskGeometry,
    Linker,
    SimulatedDisk,
    StableStore,
    Write,
)

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
