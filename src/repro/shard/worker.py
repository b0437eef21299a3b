"""A shard worker: one GemStone owning one partition of the object space.

The worker is the paper's whole Session-Manager-plus-Commit-Manager
stack, shrunk to a partition: it executes the statements routed to it
inside its own OPAL engine and commits locally through its own safe
group writes.  Every global transaction gets its **own worker-side
GemSession** (created on first SHARD_EXEC, retired on commit/abort), so
concurrent cluster sessions are isolated exactly like concurrent local
sessions — the OCC validation and contention machinery apply unchanged.

On top of that the worker is a **2PC participant**:

* ``PREPARE`` validates the transaction's session with the OCC manager
  and detaches it as a :class:`~repro.concurrency.transactions.\
PreparedTransaction` (a lock every later validation respects), then
  forces the in-doubt set (each prepared gtid with its statements) to
  disk *before* voting yes.  The set is protocol state, not database
  state, so it lives in the store's **note** — a small blob the root
  points at — and the write is a safe group of no objects.  A restarted
  worker reads the note back, re-executes and re-prepares (re-acquiring
  its locks ahead of any new traffic), and reports the gtids over
  ``STATUS`` for the cluster's recovery to ``DECIDE`` from its log.
* ``DECIDE commit`` applies the prepared workspace and publishes the
  note without that gtid in the *same* safe group write, so no crash
  can leave the two disagreeing; ``DECIDE abort`` drops whatever the
  gtid holds here — locks, live workspace, its line in the note — which
  doubles as the client's plain abort and is safe to repeat.

Crash windows (the soak's kill points) sit exactly where the protocol
state changes hands: before/after the note's group write at PREPARE,
before/after the decision apply, and the three moments 2PC state is
half on the wire — ``wire.prepare_received`` (the PREPARE arrived,
nothing happened yet), ``wire.vote_sent`` (the vote left, the decision
is not known) and ``wire.decide_ack_sent`` (the apply is durable, the
ack just left).  The worker fires them itself, so every host it runs on
— this process or a forked one — meets the same windows in the same
order.
"""

from __future__ import annotations

import json

from ..db import GemStone
from ..dr.verify import reopen_cold_diff
from ..errors import ProtocolError, TransactionConflict
from ..executor import protocol
from ..executor.exchange import ReplayingServer
from ..executor.protocol import Frame, FrameType
from ..storage.disk import DiskGeometry, SimulatedDisk

#: the name the in-doubt set goes by in the store's note: JSON, gtid →
#: statements in prepare order (the note's own CRC guards the bytes)
NOTE_NAME = "2pc"
#: where a platter of the format before the note kept the same JSON: a
#: binding on the ``system`` object, read once by :meth:`ShardWorker.reopen`
_LEGACY_BINDING = "prepared_2pc"


class ShardWorker:
    """One shard: a private GemStone plus the 2PC participant protocol."""

    def __init__(
        self,
        shard_id: int,
        disk=None,
        track_count: int = 1024,
        track_size: int = 512,
        killer=None,
        fresh: bool = False,
    ) -> None:
        self.shard_id = shard_id
        if disk is None:
            disk = SimulatedDisk(
                DiskGeometry(track_count=track_count, track_size=track_size)
            )
            self.db = GemStone.create(disk=disk)
        elif fresh:
            # a caller-supplied but unformatted platter (e.g. a brand-new
            # FileDisk in a worker process's own directory)
            self.db = GemStone.create(disk=disk)
        else:
            self.db = GemStone.open(disk)
        self.disk = disk
        self.killer = killer
        self.alive = True
        #: gtid -> the worker-side session running that transaction
        self._sessions: dict[str, object] = {}
        #: gtid -> statements executed into the live workspace (pre-prepare)
        self._pending: dict[str, list[str]] = {}
        #: gtid -> statements: the in-doubt set as the store's note has it
        self._durable_prepared: dict[str, list[str]] = {}
        #: compiled-block caches of retired sessions, each waiting for
        #: one new session to start warm from (see :meth:`_session_for`)
        self._idle_blocks: list = []
        self.server = self.connection()

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def reopen(cls, shard_id: int, disk, killer=None) -> "ShardWorker":
        """Restart a crashed worker from its platter.

        Recovery re-acquires every in-doubt transaction's locks *before*
        the worker serves any new traffic: the in-doubt set is read back
        from the note and each transaction's statements are re-executed
        and re-prepared; the cluster then reads the gtids over STATUS
        and DECIDEs each from the coordinator's decision log.  A platter
        whose root predates the note has the set bound on ``system``; it
        moves to the note here, once, and is never bound again.
        """
        worker = cls(shard_id, disk=disk, killer=killer)
        store = worker.db.store
        if store.root_has_note:
            worker._durable_prepared = json.loads(store.note.get(NOTE_NAME, b"{}"))
        else:
            system = store.object(store.catalog["system"])
            record = system.value_at(_LEGACY_BINDING)
            legacy = json.loads(record) if isinstance(record, str) else {}
            if legacy:
                worker._publish(legacy)
        tm = worker.db.transaction_manager
        for gtid in sorted(worker._durable_prepared):
            session = worker.db.login()
            for statement in worker._durable_prepared[gtid]:
                session.execute(statement)
            tm.prepare(session.session, gtid)
            session.close()
        return worker

    def in_doubt(self) -> list[str]:
        """Gtids this worker holds prepared, awaiting a decision."""
        return self.db.transaction_manager.in_doubt()

    # -- serving ------------------------------------------------------------

    def connection(self) -> ReplayingServer:
        """The server for one new connection, with its own replay window.

        Every client starts its channels at seq 1, so a window shared
        between connections would replay one client's responses to the
        next — a re-dialed link always gets a fresh one.
        """
        return ReplayingServer(self._handle)

    def serve(self, link_end, drain=None, server=None) -> None:
        """Answer *link_end* until it runs dry (or, with a *drain* flag,
        until EOF or the flag); a dead worker stops answering.

        *server* is the connection's own (see :meth:`connection`); a
        worker serving a single link may leave it out.
        """
        if not self.alive:
            return
        (server or self.server).serve(link_end, drain, self._answered)

    def _window(self, name: str) -> None:
        if self.killer is not None:
            self.killer.window(name, self.shard_id)

    def _handle(self, frame: Frame) -> bytes:
        if frame.type is FrameType.SHARD_EXEC:
            return self._exec(frame.fields["gtid"], frame.fields["source"])
        if frame.type is FrameType.SHARD_COMMIT:
            return self._local_commit(frame.fields["gtid"])
        if frame.type is FrameType.PREPARE:
            self._window("wire.prepare_received")
            return self._prepare(frame.fields["gtid"])
        if frame.type is FrameType.DECIDE:
            return self._decide(frame.fields["gtid"], frame.fields["commit"])
        if frame.type is FrameType.STATUS:
            return protocol.encode_status_report(
                json.dumps(self.status(frame.fields["verify"]))
            )
        raise ProtocolError(f"unexpected frame {frame.type.name}")

    def _answered(self, frame: Frame) -> None:
        """The server's after-send hook: the wire windows on the far side
        of a reply.  It runs only for frames actually *applied* — a
        replayed duplicate re-crosses no protocol state — so the window
        census does not depend on timing."""
        if frame.type is FrameType.PREPARE:
            self._window("wire.vote_sent")
        elif frame.type is FrameType.DECIDE:
            self._window("wire.decide_ack_sent")

    # -- statements and the single-shard fast path ---------------------------

    def _session_for(self, gtid: str):
        """The session running *gtid*, logged in on first use.

        A transaction's statements are the same few shapes as the last
        one's, so a new session takes over the compiled-block cache of
        a *retired* one instead of compiling them again.  A cache is
        popped here and pushed back only by :meth:`_retire`, so it has
        one live owner at a time — two live sessions never share an
        entry — and what it holds is code: engine globals and doit
        temporaries live on the engine, which is not handed on, and
        every memo a block carries is keyed on the store token or the
        class epoch (closing a session that defined classes bumps it).
        """
        session = self._sessions.get(gtid)
        if session is None:
            session = self.db.login()
            if self._idle_blocks:
                perf = session.session.perf
                perf.compile_entries, perf.compile_skeletons = self._idle_blocks.pop()
            self._sessions[gtid] = session
        return session

    def _retire(self, gtid: str) -> None:
        session = self._sessions.pop(gtid, None)
        if session is not None:
            session.close()
            perf = session.session.perf
            self._idle_blocks.append((perf.compile_entries, perf.compile_skeletons))
        self._pending.pop(gtid, None)

    def _exec(self, gtid: str, source: str) -> bytes:
        session = self._session_for(gtid)
        value = session.execute(source)
        self._pending.setdefault(gtid, []).append(source)
        return protocol.encode_result(value, session.display(value))

    def _local_commit(self, gtid: str) -> bytes:
        """A transaction whose statements all landed here commits locally
        — one participant needs no coordinator, no decision log, no
        second phase (the classic single-shard fast path)."""
        session = self._session_for(gtid)
        try:
            tx_time = session.commit()  # conflicts raise → ERROR frame
        finally:
            self._retire(gtid)
        return protocol.encode_committed(tx_time)

    # -- the participant protocol --------------------------------------------

    def _prepare(self, gtid: str) -> bytes:
        tm = self.db.transaction_manager
        session = self._sessions.get(gtid)
        if session is None:
            if gtid in tm.in_doubt():
                return protocol.encode_vote(gtid, True)  # idempotent
            # nothing ever executed here for this gtid: hold no locks
            return protocol.encode_vote(gtid, True, read_only=True)
        try:
            prepared = tm.prepare(session.session, gtid)
        except TransactionConflict:
            self._retire(gtid)
            return protocol.encode_vote(gtid, False)
        if prepared is None:
            # read-only participant: vote yes, skip phase two entirely
            self._retire(gtid)
            return protocol.encode_vote(gtid, True, read_only=True)
        self._window("prepare.before_persist")
        statements = self._pending.get(gtid, [])  # _retire drops them
        self._publish({**self._durable_prepared, gtid: statements})
        self._window("prepare.after_persist")
        self._retire(gtid)
        return protocol.encode_vote(gtid, True)

    def _decide(self, gtid: str, commit: bool) -> bytes:
        tm = self.db.transaction_manager
        if commit:
            if gtid in tm.in_doubt():
                self._window("decide.before_apply")
                remaining = self._without(gtid)
                tm.commit_prepared(gtid, note=_note(remaining))
                self._durable_prepared = remaining
                self._window("decide.after_apply")
            # else: already applied (recovery or a replay raced the
            # coordinator's retry) — acknowledge idempotently
        else:
            # locks if it prepared, the live workspace if it did not (or
            # its PREPARE's group write failed), the note if it got that far
            tm.abort_prepared(gtid)
            self._retire(gtid)
            if gtid in self._durable_prepared:
                self._publish(self._without(gtid))
        return protocol.encode_decide_ack(
            gtid, self.db.store.commit_manager.current_epoch
        )

    # -- the durable in-doubt set ----------------------------------------------

    def _without(self, gtid: str) -> dict[str, list[str]]:
        return {
            key: value
            for key, value in self._durable_prepared.items()
            if key != gtid
        }

    def _publish(self, prepared: dict[str, list[str]]) -> None:
        """Force *prepared* to disk as the in-doubt set: one safe group
        write of no objects — a contents record in which only the note
        changed, and the root."""
        self.db.transaction_manager.publish(note=_note(prepared))
        self._durable_prepared = prepared

    # -- reporting -------------------------------------------------------------

    def status(self, verify: bool = False) -> dict:
        """The STATUS_REPORT body: the windows this worker has crossed,
        its in-doubt state (live and durable) and its counters.  Asked
        to *verify*, it also reopens its platter cold and lists what a
        restarted worker would read differently from this live one."""
        status = {
            "shard_id": self.shard_id,
            "windows": [] if self.killer is None else self.killer.log,
            "in_doubt": self.in_doubt(),
            "durable_prepared": sorted(self._durable_prepared),
            "report": self.report(),
        }
        if verify:
            status["reopen_cold"] = reopen_cold_diff(self.db)
        return status

    def report(self) -> dict:
        """Per-shard counters for observability and the soak digest."""
        stats = self.db.transaction_manager.stats
        return {
            "shard_id": self.shard_id,
            "alive": self.alive,
            "commits": stats.commits,
            "aborts": stats.aborts,
            "prepares": stats.prepares,
            "prepared_commits": stats.prepared_commits,
            "prepared_aborts": stats.prepared_aborts,
            "live_sessions": len(self._sessions),
            "in_doubt": len(self.in_doubt()),
            "epoch": self.db.store.commit_manager.current_epoch,
        }


def _note(prepared: dict[str, list[str]]) -> dict[str, bytes]:
    """The note update publishing *prepared*; empty, it drops the name."""
    return {NOTE_NAME: json.dumps(prepared).encode() if prepared else b""}


def down_report(shard_id: int) -> dict:
    """The :meth:`ShardWorker.report` of a worker that cannot answer."""
    report = dict.fromkeys(
        ("commits", "aborts", "prepares", "prepared_commits",
         "prepared_aborts", "live_sessions", "in_doubt", "epoch"), 0,
    )
    report.update(shard_id=shard_id, alive=False)
    return report
