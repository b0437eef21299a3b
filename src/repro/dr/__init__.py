"""Disaster recovery: continuous replication log + point-in-time rebuild.

Section 6 promises "requests for replication of data"; this package is
the half that survives losing the primary entirely.  Every commit ships
a CRC-framed log record (:mod:`~repro.dr.log`) over the Executor's SEQ
link to a :class:`~repro.dr.store.ReplicaLogStore`
(:mod:`~repro.dr.ship`); :mod:`~repro.dr.recover` rebuilds a working
GemStone from the log alone, to any requested epoch;
:mod:`~repro.dr.verify` proves the rebuild byte-identical; and
:mod:`~repro.dr.soak` kills the primary at every crash point to prove
zero committed-transaction loss.  ``python -m repro.sweep dr --seed N``
replays one seeded sweep.  See docs/recovery.md.
"""

from .log import (
    DeltaRecord,
    SnapshotRecord,
    decode_record,
    encode_record,
    iter_records,
    snapshot_of,
)
from .recover import recover_database, recover_disk, replay_onto
from .ship import LogReceiver, LogShipper
from .store import LogSegment, ReplicaLogStore
from .verify import (
    byte_identical,
    diff_disks,
    disk_digest,
    logical_diff,
    reopen_cold_diff,
)

__all__ = [
    "DeltaRecord",
    "SnapshotRecord",
    "decode_record",
    "encode_record",
    "iter_records",
    "snapshot_of",
    "recover_database",
    "recover_disk",
    "replay_onto",
    "LogReceiver",
    "LogShipper",
    "LogSegment",
    "ReplicaLogStore",
    "byte_identical",
    "diff_disks",
    "disk_digest",
    "logical_diff",
    "reopen_cold_diff",
]
