"""Differential verification of recovered databases.

The recovery promise is *byte-identical*: the rebuilt platter equals the
lost primary's platter at the recovered epoch.  :func:`disk_digest`
reduces a whole disk to one SHA-256 (per-track, zero-trim normalized, so
a replayed trimmed image and the original padded write hash alike);
:func:`diff_disks` names the first mismatching tracks when a digest
comparison fails, which is what the soak prints in a reproducer.

Above bytes, :func:`logical_diff` opens both disks as databases and
compares what a session can observe — catalog, note, epoch, transaction
time, the oid population, and every object's encoded record — the same
spirit as the ``repro.check`` differential oracle: two paths to the same
state must agree exactly.  :func:`reopen_cold_diff` is that comparison
between one live database and a cold reopen of its own platter: what a
crash right now would leave a restarted server to read.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import List


def _track_image(disk, track: int) -> bytes:
    if not disk.is_written(track):
        return b""
    return disk.read_track(track).rstrip(b"\x00")


def disk_digest(disk) -> str:
    """SHA-256 over every track's zero-trimmed contents."""
    digest = sha256()
    for track in range(disk.track_count):
        image = _track_image(disk, track)
        digest.update(struct.pack("<II", track, len(image)))
        digest.update(image)
    return digest.hexdigest()


def diff_disks(expected, actual, limit: int = 5) -> List[str]:
    """The first *limit* track-level differences, human-readable."""
    problems: List[str] = []
    if expected.track_count != actual.track_count:
        problems.append(
            f"track counts differ: {expected.track_count} vs "
            f"{actual.track_count}"
        )
        return problems
    for track in range(expected.track_count):
        want = _track_image(expected, track)
        got = _track_image(actual, track)
        if want != got:
            problems.append(
                f"track {track}: expected {len(want)} bytes, "
                f"got {len(got)} bytes"
                + ("" if len(want) != len(got) else " (contents differ)")
            )
            if len(problems) >= limit:
                break
    return problems


def byte_identical(expected, actual) -> bool:
    """True when both platters hold identical (trim-normalized) bytes."""
    return disk_digest(expected) == disk_digest(actual)


def logical_diff(expected_db, actual_db) -> List[str]:
    """Observable-state differences between two opened databases."""
    from ..storage.codec import encode_object

    problems: List[str] = []
    a, b = expected_db.store, actual_db.store
    if a.commit_manager.current_epoch != b.commit_manager.current_epoch:
        problems.append(
            f"epoch: {a.commit_manager.current_epoch} vs "
            f"{b.commit_manager.current_epoch}"
        )
    if a.last_tx_time != b.last_tx_time:
        problems.append(f"last_tx_time: {a.last_tx_time} vs {b.last_tx_time}")
    if a.catalog != b.catalog:
        problems.append("catalogs differ")
    if a.note != b.note:
        problems.append(f"notes differ: {sorted(a.note)} vs {sorted(b.note)}")
    oids_a, oids_b = set(a.table.oids()), set(b.table.oids())
    if oids_a != oids_b:
        problems.append(
            f"oid populations differ: {sorted(oids_a ^ oids_b)[:10]}"
        )
        return problems
    for oid in sorted(oids_a):
        if a.table.get(oid).archived or b.table.get(oid).archived:
            continue
        if encode_object(a.object(oid)) != encode_object(b.object(oid)):
            problems.append(f"oid {oid}: encoded records differ")
            if len(problems) >= 10:
                break
    return problems


def reopen_cold_diff(database) -> List[str]:
    """What a cold reopen of *database*'s platter sees differently.

    The live store answers from objects it has kept decoded since it
    wrote them; the reopened one has only the tracks.  Any difference is
    a record the write path put on the platter wrongly (or a reader
    that cannot find it) — invisible until the process restarts.  The
    allocated tracks are compared too: the set the live store has kept
    up commit by commit must be the one an open derives from the root.
    """
    from ..db import GemStone

    cold = GemStone.open(database.disk)
    problems = logical_diff(database, cold)
    live = database.store.tracks.allocated_tracks()
    derived = cold.store.tracks.allocated_tracks()
    if live != derived:
        problems.append(
            f"allocated tracks: only live {sorted(live - derived)[:10]}, "
            f"only derived {sorted(derived - live)[:10]}"
        )
    return [f"reopened cold: {problem}" for problem in problems]
