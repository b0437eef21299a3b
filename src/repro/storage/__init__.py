"""``repro.storage`` — secondary storage management.

The paper's Object Manager subcomponents (section 6), each as a module:

* :mod:`~repro.storage.disk` — whole-track simulated disk with fault
  injection (substitute for the paper's special-purpose hardware);
* :mod:`~repro.storage.tracks` — Track Manager: allocation + scheduling;
* :mod:`~repro.storage.codec` — binary encoding of objects and metadata;
* :mod:`~repro.storage.boxer` — Boxer: fit objects into tracks;
* :mod:`~repro.storage.linker` — Linker: merge transactions at commit;
* :mod:`~repro.storage.commit` — Commit Manager: safe group writes;
* :mod:`~repro.storage.object_table` — GOOP resolution table;
* :mod:`~repro.storage.stable` — the composed durable object space;
* :mod:`~repro.storage.cache` — decoded-object LRU cache;
* :mod:`~repro.storage.replication` — N-way track replication;
* :mod:`~repro.storage.archive` — DBA archival to removable media.
"""

from .archive import ArchiveDrive, ArchiveMedia
from .boxer import Boxer, Fragment, PackResult, assemble, read_entries
from .cache import ObjectCache
from .codec import (
    decode_object,
    decode_object_full,
    decode_root,
    encode_appends,
    encode_object,
    encode_root,
)
from .commit import CommitManager, decode_root_track, encode_root_track
from .disk import DiskGeometry, DiskStats, SimulatedDisk
from .filedisk import FileDisk
from .linker import Creation, Delta, Linker, Write
from .object_table import Location, ObjectTable, PAGE_SPAN
from .replication import ReplicaHealth, ReplicatedDisk
from .stable import StableStore
from .tracks import RESERVED_TRACKS, TrackManager

__all__ = [
    "ArchiveDrive",
    "ArchiveMedia",
    "Boxer",
    "CommitManager",
    "Creation",
    "Delta",
    "DiskGeometry",
    "FileDisk",
    "DiskStats",
    "Fragment",
    "Linker",
    "Location",
    "ObjectCache",
    "ObjectTable",
    "PAGE_SPAN",
    "PackResult",
    "RESERVED_TRACKS",
    "ReplicaHealth",
    "ReplicatedDisk",
    "SimulatedDisk",
    "StableStore",
    "TrackManager",
    "Write",
    "assemble",
    "decode_object",
    "decode_object_full",
    "decode_root",
    "decode_root_track",
    "encode_appends",
    "encode_object",
    "encode_root",
    "encode_root_track",
    "read_entries",
]
