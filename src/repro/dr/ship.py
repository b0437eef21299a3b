"""Continuous log shipping over the Executor's link machinery.

The primary's :class:`LogShipper` hangs off
:attr:`~repro.storage.commit.CommitManager.log_sink`: every published
root becomes a delta record shipped **before the commit is
acknowledged** (sync mode, the default).  The wire is the same SEQ
envelope the host ↔ Gem conversation uses — checksummed, exactly-once,
and wrappable in :class:`~repro.faults.link.FaultyLink` — so replication
inherits the whole fault model for free.  A ship that exhausts its
retry budget raises :class:`~repro.errors.ReplicaNotAcknowledged`, a
``StorageError``: the Transaction Manager aborts the workspace and the
client never sees the commit succeed.  That is the zero-loss invariant
in one sentence: *client-acknowledged implies replica-acknowledged*.

Both halves are flavours of the one exactly-once exchange
(:mod:`repro.executor.exchange`; ``docs/networking.md``, "The
exactly-once exchange"): :class:`LogShipper` is the client built to fail
as ``ReplicaNotAcknowledged``, and the replica's :class:`LogReceiver`
hands the replaying server a handler that validates each record into
the :class:`~repro.dr.store.ReplicaLogStore` and answers ``SHIP_ACK``
with its durably acknowledged epoch.  Typed errors (gaps, torn records)
travel back as ``ERROR`` frames and are rehydrated into the same
exception types on the primary.

``suspend()``/``catch_up()`` model a replica outage: while suspended,
records accumulate in the shipper's history; ``catch_up()`` asks the
replica where it stopped (``SHIP_STATUS``) and resends exactly the
missing suffix.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ProtocolError, ReplicaNotAcknowledged, ReplicationError
from ..executor import protocol
from ..executor.exchange import ExactlyOnceClient, ReplayingServer
from ..executor.protocol import Frame, FrameType
from .log import DeltaRecord, encode_record, snapshot_of
from .store import ReplicaLogStore


class LogReceiver(ReplayingServer):
    """The replica-side pump: frames in, validated log records stored.

    Its replay window is keyed by (channel, seq), so two logical streams
    (say a SHIP conversation and a 2PC conversation) can share one link
    and one receiver without their sequence spaces colliding.
    """

    def __init__(self, store: ReplicaLogStore) -> None:
        super().__init__(self._handle)
        self.store = store

    def _handle(self, frame: Frame) -> bytes:
        if frame.type in (FrameType.SHIP, FrameType.SNAPSHOT):
            return protocol.encode_ship_ack(self.store.append(frame.fields["record"]))
        if frame.type is FrameType.SHIP_STATUS:
            return protocol.encode_ship_ack(self.store.acked_epoch)
        raise ProtocolError(f"unexpected frame {frame.type.name}")


class LogShipper(ExactlyOnceClient):
    """The primary-side streamer: every commit becomes a shipped record."""

    def __init__(
        self,
        link,
        pump: Callable[[], None],
        sync: bool = True,
        max_attempts: int = 8,
        clock=None,
        frame_deadline: Optional[float] = None,
        retry_delay: float = 1.0,
    ) -> None:
        # *link* is the primary's link end (possibly fault-wrapped) and
        # *pump* drains the receiver after each send.  With *clock* and
        # *frame_deadline* both set the commit path cannot block past
        # its time budget even when *max_attempts* would allow more.
        super().__init__(
            link, pump, clock,
            deadline=frame_deadline, retry_delay=retry_delay,
            max_attempts=max_attempts, unavailable=ReplicaNotAcknowledged,
        )
        #: sync: a commit is not acknowledged until its record is; async
        #: (False) buffers into history for a later :meth:`catch_up`
        self.sync = sync
        self.suspended = False
        #: epoch -> encoded delta record, the catch-up source of truth
        self.history: dict[int, bytes] = {}
        self._bootstrap: Optional[tuple[int, bytes]] = None
        self.local_epoch = 0  #: last epoch the primary published
        self.acked_epoch = 0  #: last epoch the replica acknowledged
        self.records_shipped = 0
        self.ship_failures = 0

    # -- the commit hook ------------------------------------------------------

    def on_commit(self, epoch, root_slot, root_image, shadow_writes) -> None:
        """The :attr:`CommitManager.log_sink` callback: ship one delta."""
        record = encode_record(
            DeltaRecord(
                epoch=epoch,
                root_slot=root_slot,
                root_image=root_image,
                writes=tuple(shadow_writes.items()),
            )
        )
        self.history[epoch] = record
        self.local_epoch = epoch
        if self.suspended or not self.sync:
            return
        try:
            self._ship(protocol.encode_ship(record))
        except ReplicationError:
            self.ship_failures += 1
            raise

    # -- bootstrap and catch-up ------------------------------------------------

    def bootstrap(self, disk, epoch: int) -> int:
        """Ship a full snapshot of *disk* at *epoch* (replica birth)."""
        record = encode_record(snapshot_of(disk, epoch))
        self._bootstrap = (epoch, record)
        self.local_epoch = max(self.local_epoch, epoch)
        return self._ship(protocol.encode_snapshot(record))

    def checkpoint(self, disk, epoch: int) -> int:
        """Ship a fresh snapshot segment (recent recovery stays local
        even after older segments roll onto the archive)."""
        return self.bootstrap(disk, epoch)

    def suspend(self) -> None:
        """Model a replica outage: commits buffer instead of shipping."""
        self.suspended = True

    def catch_up(self) -> int:
        """Reconnect: ask the replica where it stopped, resend the rest."""
        self.suspended = False
        acked = self._ship(protocol.encode_ship_status())
        if acked == 0 and self._bootstrap is not None:
            # the replica lost everything: re-bootstrap, then deltas
            acked = self._ship(protocol.encode_snapshot(self._bootstrap[1]))
        for epoch in sorted(self.history):
            if epoch > acked:
                acked = self._ship(protocol.encode_ship(self.history[epoch]))
        return acked

    # -- the wire --------------------------------------------------------------

    def _ship(self, frame: bytes) -> int:
        """One exactly-once exchange; the epoch the replica acknowledged."""
        reply = protocol.raise_if_error(self.request(frame))
        if reply.type is not FrameType.SHIP_ACK:
            raise ReplicationError(f"unexpected reply {reply.type.name}")
        self.acked_epoch = max(self.acked_epoch, reply.fields["epoch"])
        self.records_shipped += 1
        return reply.fields["epoch"]

    # -- reporting -------------------------------------------------------------

    @property
    def replication_lag(self) -> int:
        """Epochs the replica is behind the primary (0 when in step)."""
        return max(0, self.local_epoch - self.acked_epoch)

    def report(self) -> dict:
        """Shipping counters for dashboards and ``replication_report``."""
        return {
            "sync": self.sync,
            "suspended": self.suspended,
            "local_epoch": self.local_epoch,
            "acked_epoch": self.acked_epoch,
            "replication_lag": self.replication_lag,
            "records_shipped": self.records_shipped,
            "retries": self.retries,
            "ship_failures": self.ship_failures,
            "deadline_failures": self.deadline_failures,
            "history_records": len(self.history),
        }
