"""One logical GemStone over N shard workers.

:class:`ShardedGemStone` is the cluster, and there is one: sessions,
global transaction ids, the presumed-abort coordinator with its durable
decision log, two SEQ channels per worker (session statements, 2PC
control), ``STATUS`` health probes, observability, and the one recovery
procedure.  It runs over a list of **worker hosts**; a host is only
what genuinely differs between running the workers here and running
them for real:

* **placement** — where the :class:`~repro.shard.worker.ShardWorker`
  runs and its platter lives: this process on a ``SimulatedDisk``
  (:class:`MemoryHost`), or a forked process on a ``FileDisk`` in its
  own directory (:class:`~repro.shard.procs.WorkerProc`);
* **link** — how it is reached: ``make_link`` plus a pump that drains
  the worker after each send, or ``dial`` over TCP and no pump;
* **death** — ``WorkerKilled`` raised at the armed window, or SIGKILL;
* **respawn** — ``ShardWorker.reopen`` on the surviving platter, in
  place or in a new process.

Constructing ``ShardedGemStone`` picks memory hosts (the test fake);
:class:`~repro.shard.procs.ProcCluster` is the same class constructed
over process hosts.  The coordinator always lives with the cluster.

:class:`ShardedSession` is the front end.  It quacks like
:class:`~repro.db.GemSession` closely enough that the existing
:class:`~repro.executor.Executor` can serve host links against a
sharded cluster unchanged: ``execute`` routes each statement to the
owning shard (see :mod:`repro.shard.partition`), ``commit`` takes the
single-shard fast path when only one worker participated and otherwise
runs full 2PC, ``abort`` rolls every participant back.

Recovery (:meth:`ShardedGemStone.recover`) happens in place: dead
hosts are respawned from their platters (re-preparing their in-doubt
transactions from their store's note before they serve), a dead
coordinator's log is reloaded from its disk, each worker's in-doubt
set is read over ``STATUS`` and answered from the decision log with a
``DECIDE`` (commit if logged, abort presumed), and pending fan-outs
are settled.  A cluster constructed over surviving platters
(``worker_disks``/``decision_disk``, or a ``base_dir``) starts the
same way and is recovered by the same call.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Optional

from ..errors import GemStoneError, SessionClosed
from ..executor import protocol
from ..executor.link import make_link
from ..faults.plan import FaultClock
from ..govern import CommitPolicy
from ..obs import Observability
from ..storage.disk import DiskGeometry, SimulatedDisk
from .coordinator import TwoPhaseCoordinator, in_doubt_error
from .decisions import DecisionLog
from .partition import route_statement
from .rpc import CoordinatorKilled, RequestChannel, WorkerKilled
from .worker import ShardWorker, down_report

#: channel ids multiplexed on each worker link
EXEC_CHANNEL = 0
TWOPC_CHANNEL = 1


def _worker_dies(name: str, victim) -> None:
    raise WorkerKilled(f"shard {victim} died at {name}")


def _coordinator_dies(name: str, victim) -> None:
    raise CoordinatorKilled(f"coordinator died at {name}")


class MemoryHost:
    """A shard worker in this process, on a simulated platter.

    The test fake for :class:`~repro.shard.procs.WorkerProc`: the same
    :class:`~repro.shard.worker.ShardWorker` serving the same frames,
    with an in-memory link where the socket would be and an exception
    where the SIGKILL would be.
    """

    def __init__(self, shard_id: int, disk=None, track_count: int = 1024,
                 track_size: int = 512) -> None:
        self.shard_id = shard_id
        self.disk = disk
        self._geometry = {"track_count": track_count, "track_size": track_size}
        self.worker: Optional[ShardWorker] = None

    def spawn(self, killer=None) -> None:
        """Start the worker: format a fresh platter, or reopen the one
        that is there (re-preparing its durable in-doubt set)."""
        if killer is not None:
            killer = killer.for_node(self.shard_id, _worker_dies)
        if self.disk is None:
            self.worker = ShardWorker(
                self.shard_id, killer=killer, **self._geometry
            )
            self.disk = self.worker.disk
        else:
            self.worker = ShardWorker.reopen(
                self.shard_id, self.disk, killer=killer
            )

    def connect(self, registry):
        """A fresh link to the worker → ``(client end, pump)``."""
        worker = self.worker
        client_end, worker_end = make_link()
        server = worker.connection()

        def pump() -> None:
            # the in-process link is synchronous: drain it after each send
            try:
                worker.serve(worker_end, server=server)
            except WorkerKilled:
                worker.alive = False

        return client_end, pump

    @property
    def alive(self) -> bool:
        return self.worker is not None and self.worker.alive

    def sigkill(self) -> None:
        """Crash the worker where it stands (the fake's SIGKILL)."""
        if self.worker is not None:
            self.worker.alive = False

    def await_death(self) -> bool:
        """Whether the worker is dead (an exception kills at once)."""
        return not self.alive

    def stop(self, drain: bool = True) -> Optional[int]:
        """Drop the worker; an in-process worker has no exit code."""
        self.worker = None
        return None


class _MemoryLog:
    """The coordinator's platter in this process."""

    def __init__(self, disk, track_size: int) -> None:
        self.disk = disk
        self.track_size = track_size

    def load(self) -> DecisionLog:
        """The decision log as a (re)started coordinator finds it."""
        if self.disk is not None:
            return DecisionLog.open(self.disk)
        self.disk = SimulatedDisk(
            DiskGeometry(track_count=128, track_size=self.track_size)
        )
        return DecisionLog.create(self.disk)

    def close(self, cleanup: bool) -> None:
        pass


class _SessionInfo:
    """The ``session.session`` shim the Executor front end expects."""

    def __init__(self, session_id: int) -> None:
        self.session_id = session_id


class ShardedGemStone:
    """A cluster of shard workers behind one session interface."""

    def __init__(
        self,
        shard_count: int = 2,
        track_count: int = 1024,
        track_size: int = 512,
        killer=None,
        worker_disks=None,
        decision_disk=None,
        generation: int = 0,
        deadline: float = 8.0,
    ) -> None:
        if worker_disks is None:
            worker_disks = [None] * shard_count
        hosts = [
            MemoryHost(shard_id, disk, track_count, track_size)
            for shard_id, disk in enumerate(worker_disks)
        ]
        self._assemble(
            hosts, _MemoryLog(decision_disk, track_size),
            killer, generation, deadline,
        )

    def _assemble(self, hosts, log_store, killer, generation, deadline) -> None:
        """The constructor proper, over whichever hosts were picked.

        *killer* is a sweep's :class:`~repro.faults.plan.WindowKiller`
        plan (or None): every node gets its own copy, counting that
        node's windows and armed only on the plan's victim.
        """
        self.hosts = hosts
        self.shard_count = len(hosts)
        self.generation = generation
        self.deadline = deadline
        self.clock = FaultClock()
        self.obs = Observability()
        #: retries on every channel pace through govern's seeded
        #: jittered backoff
        self.retry_policy = CommitPolicy(seed=generation)
        self._session_counter = 0
        self._gtid_counter = 0
        #: gtids must stay unique even when bench drivers run one
        #: thread per shard against the same cluster
        self._gtid_lock = threading.Lock()
        self._commit_counter = 0
        self.single_shard_commits = 0
        self.cross_shard_commits = 0

        for host in hosts:
            host.spawn(killer)
        if killer is not None:
            killer = killer.for_node("coord", _coordinator_dies)
        self._log_store = log_store
        self.coordinator = TwoPhaseCoordinator(log_store.load(), killer=killer)
        self._links: list = [None] * self.shard_count
        self.exec_channels: list = [None] * self.shard_count
        for shard_id in range(self.shard_count):
            self._wire(shard_id)

    def _wire(self, shard_id: int) -> None:
        """(Re)connect one worker and rebuild both its channels.

        Always a *fresh* connection, hence a fresh replay window on the
        worker's side: new channels number their requests from 1 again,
        and an old window would answer them with stale responses.
        """
        link, pump = self.hosts[shard_id].connect(self.obs.registry)
        old = self._links[shard_id]
        if old is not None:
            old.close()
        self._links[shard_id] = link
        self.exec_channels[shard_id], twopc = (
            RequestChannel(
                link, pump, self.clock, channel=channel,
                deadline=self.deadline, policy=self.retry_policy,
            )
            for channel in (EXEC_CHANNEL, TWOPC_CHANNEL)
        )
        self.coordinator.attach(shard_id, twopc)

    # -- sessions ------------------------------------------------------------

    def login(self, user=None, password=None) -> "ShardedSession":
        """Open a sharded session (credentials accepted for Executor
        compatibility; authorization is each worker's concern)."""
        self._session_counter += 1
        return ShardedSession(self, self._session_counter)

    def next_gtid(self) -> str:
        """A cluster-unique global transaction id.

        The generation prefix keeps the ids of a cluster constructed
        over surviving platters disjoint from its previous life's
        in-doubt ids.
        """
        with self._gtid_lock:
            self._gtid_counter += 1
            return f"g{self.generation}.{self._gtid_counter}"

    # -- worker health -------------------------------------------------------

    def status(self, shard_id: int, verify: bool = False) -> dict:
        """One worker's STATUS_REPORT (windows, in-doubt state, counters;
        with *verify*, its ``reopen_cold`` platter-against-live diff)."""
        reply = self.exec_channels[shard_id].request(
            protocol.encode_status(verify)
        )
        return json.loads(reply.fields["payload"])

    def _live_statuses(self) -> dict[int, dict]:
        # a dead host cannot answer; its in-doubt set is read after respawn
        return {
            shard_id: self.status(shard_id)
            for shard_id, host in enumerate(self.hosts)
            if host.alive
        }

    def in_doubt(self) -> dict[int, list[str]]:
        """Per-shard gtids still awaiting a decision (empty when clean)."""
        return {
            shard_id: status["in_doubt"]
            for shard_id, status in self._live_statuses().items()
            if status["in_doubt"]
        }

    # -- recovery ------------------------------------------------------------

    def restart_coordinator(self) -> None:
        """Replace a dead coordinator from its durable log.

        The in-memory log is discarded and re-read from its platter —
        exactly the state a restarted coordinator would see — and every
        live worker is reconnected so the new coordinator's channels
        start on fresh replay windows.  The new coordinator carries on
        its predecessor's lifetime totals.
        """
        old = self.coordinator
        self.coordinator = TwoPhaseCoordinator(self._log_store.load())
        self.coordinator.commits = old.commits
        self.coordinator.aborts = old.aborts
        self.coordinator.resolutions = old.resolutions
        for shard_id, host in enumerate(self.hosts):
            if host.alive:
                self._wire(shard_id)

    def recover(self) -> dict[str, int]:
        """Respawn the dead, resolve every in-doubt gtid, settle.

        Dead workers restart from their platters (re-preparing their
        in-doubt sets before serving), each re-prepared gtid is
        answered from the decision log (commit if logged, abort
        presumed), and the coordinator re-delivers any logged commits
        still pending.  Returns ``{"resolved": ..., "settled": ...}``.
        """
        if not self.coordinator.alive:
            self.restart_coordinator()
        for shard_id, host in enumerate(self.hosts):
            if not host.alive:
                host.stop(drain=False)  # reap the corpse
                host.spawn()
                self._wire(shard_id)
        resolved = sum(
            self.coordinator.resolve(shard_id, self.status(shard_id)["in_doubt"])
            for shard_id in range(self.shard_count)
        )
        settled = self.coordinator.settle()
        return {"resolved": resolved, "settled": settled}

    # -- observability -------------------------------------------------------

    def shard_report(self) -> dict[str, Any]:
        """The ``shard`` observability section (see docs/sharding.md)."""
        total = self.single_shard_commits + self.cross_shard_commits
        statuses = self._live_statuses()
        return {
            "shard_count": self.shard_count,
            "generation": self.generation,
            "single_shard_commits": self.single_shard_commits,
            "cross_shard_commits": self.cross_shard_commits,
            "cross_shard_ratio": (
                self.cross_shard_commits / total if total else 0.0
            ),
            "in_doubt": sum(
                len(status["in_doubt"]) for status in statuses.values()
            ),
            "coordinator": self.coordinator.report(),
            "per_shard": [
                statuses[shard_id]["report"] if shard_id in statuses
                else down_report(shard_id)
                for shard_id in range(self.shard_count)
            ],
        }

    def observability(self) -> dict[str, Any]:
        """A cluster-level snapshot: counters plus the shard section."""
        return {"counters": self.obs.registry.snapshot(), "shard": self.shard_report()}

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True, cleanup: bool = True) -> list:
        """Shut the cluster down; returns each host's exit code.

        *drain* asks hosts that can to stop gracefully (a process exits
        0 after a clean SIGTERM drain); *cleanup* removes a platter
        directory the cluster made for itself.
        """
        for link in self._links:
            if link is not None:
                link.close()
        exitcodes = [host.stop(drain=drain) for host in self.hosts]
        self._log_store.close(cleanup)
        return exitcodes

    def __enter__(self) -> "ShardedGemStone":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedSession:
    """The GemSession-shaped front end over the cluster."""

    def __init__(self, cluster: ShardedGemStone, session_id: int) -> None:
        self.cluster = cluster
        #: the Executor reads ``session.engine`` and
        #: ``session.session.session_id``; sharded execution has no
        #: single engine, and results print via their wire displays
        self.engine = None
        self.session = _SessionInfo(session_id)
        self.last_display = ""
        self._gtid: Optional[str] = None
        self._participants: list[int] = []
        self._closed = False

    # -- the language interface -------------------------------------------------

    def execute(self, source: str, bindings=None) -> Any:
        """Route one statement to its owning shard and run it there."""
        if self._closed:
            raise SessionClosed("session is closed")
        shard_id = route_statement(source, self.cluster.shard_count)
        if self._gtid is None:
            self._gtid = self.cluster.next_gtid()
        if shard_id not in self._participants:
            self._participants.append(shard_id)
        reply = self.cluster.exec_channels[shard_id].request(
            protocol.encode_shard_exec(self._gtid, source)
        )
        self.last_display = reply.fields["display"]
        return reply.fields["value"]

    def display(self, value: Any) -> str:
        """The printString of the last result (wire display)."""
        if value is None:
            return "nil"
        return self.last_display or repr(value)

    # -- transactions --------------------------------------------------------------

    def commit(self) -> Optional[int]:
        """Commit: single-shard fast path, or presumed-abort 2PC.

        Returns a monotone commit stamp.  Raises
        :class:`~repro.errors.TransactionConflict` on a no-vote,
        :class:`~repro.errors.ShardUnavailable` when a participant died
        before the decision (the transaction aborted), and
        :class:`~repro.errors.TransactionInDoubt` when the coordinator
        died after prepares went out.
        """
        gtid, participants = self._gtid, self._participants
        self._gtid, self._participants = None, []
        if gtid is None:
            return None  # nothing executed: trivially committed
        cluster = self.cluster
        if len(participants) == 1:
            reply = cluster.exec_channels[participants[0]].request(
                protocol.encode_shard_commit(gtid)
            )
            cluster.single_shard_commits += 1
            cluster._commit_counter += 1
            return reply.fields["tx_time"]
        try:
            cluster.coordinator.commit(gtid, participants)
        except CoordinatorKilled:
            cluster.coordinator.alive = False
            raise in_doubt_error(gtid)
        cluster.cross_shard_commits += 1
        cluster._commit_counter += 1
        return cluster._commit_counter

    def abort(self) -> None:
        """Roll back every participant's piece of the transaction."""
        gtid, participants = self._gtid, self._participants
        self._gtid, self._participants = None, []
        if gtid is None:
            return
        for shard_id in participants:
            try:
                self.cluster.exec_channels[shard_id].request(
                    protocol.encode_decide(gtid, False)
                )
            except GemStoneError:
                pass  # a dead shard's workspace dies with it

    def close(self) -> None:
        """End the session, discarding any in-flight work."""
        if not self._closed:
            self.abort()
            self._closed = True

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
