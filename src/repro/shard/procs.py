"""Real OS processes for shard workers — the cluster leaves the nest.

Everything below :mod:`repro.shard.cluster` treats "the cluster" as a
set of in-process workers wired by in-memory links.  This module swaps
both simulations for the real thing while keeping every protocol layer
unchanged:

* each shard worker runs in its **own process**
  (``multiprocessing``, fork start method), owning a
  :class:`~repro.storage.filedisk.FileDisk` platter in its own
  directory, serving the exact :class:`~repro.shard.worker.ShardWorker`
  frame protocol over the exact ``repro.net`` TCP framing;
* the parent holds the :class:`~repro.shard.coordinator.\
TwoPhaseCoordinator` with its decision log on its own ``FileDisk``, and
  a :class:`ProcCluster` that duck-types
  :class:`~repro.shard.cluster.ShardedGemStone` closely enough that the
  unmodified :class:`~repro.shard.cluster.ShardedSession` drives it;
* crashes are **SIGKILL**, not exceptions: a worker's
  :class:`_SigkillWindows` counts protocol windows exactly like the
  soak's :class:`~repro.shard.soak.WindowKiller` and, at the armed one,
  kills its own process mid-syscall.  Three *wire* windows join the
  worker's four durability windows, covering the moments 2PC state is
  half on the network: ``wire.prepare_received`` (the PREPARE arrived
  but nothing happened yet), ``wire.vote_sent`` (the vote is on the
  wire, the decision is not), and ``wire.decide_ack_sent`` (the apply
  is durable, the ack just left).

Recovery is the same story as the in-process soak told end to end over
real sockets: respawn the dead worker (``FileDisk.open`` →
``ShardWorker.reopen`` re-executes and re-prepares its durable
prepared record), read its in-doubt set over STATUS, answer each gtid
from the decision log (commit if logged, abort presumed), and let the
coordinator settle its pending fan-outs.  A killed coordinator is
modelled by discarding the in-memory log and reloading it from the
platter file — byte-for-byte what a process restart would read.

``run_proc_soak`` sweeps a SIGKILL through every window of every node
and verifies the same five invariants as :mod:`repro.shard.soak`;
``python -m repro.shard.procs --seed N --kill K`` replays one window.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
from typing import Optional

from ..errors import GemStoneError, ShardUnavailable
from ..executor import protocol
from ..executor.exchange import ReplayingServer
from ..executor.protocol import Frame, FrameType
from ..faults.plan import FaultClock
from ..govern import CommitPolicy
from ..net.tcp import Listener, dial
from ..obs import Observability
from ..storage.disk import DiskGeometry
from ..storage.filedisk import FileDisk
from .cluster import EXEC_CHANNEL, TWOPC_CHANNEL, ShardedSession
from .coordinator import TwoPhaseCoordinator
from .decisions import DecisionLog
from .partition import shard_of
from .rpc import RequestChannel
from .soak import ShardFailure, ShardSoakReport, WindowKiller, _workload
from .worker import ShardWorker

#: per-worker platter geometry (matches the in-process soak defaults)
TRACK_COUNT = 1024
TRACK_SIZE = 512

#: receive budget on parent→worker links, seconds: small enough that a
#: SIGKILLed worker costs the caller well under a second before the
#: typed ShardUnavailable, large enough that a loaded localhost
#: round-trip never times out spuriously
WORKER_RECEIVE_TIMEOUT = 0.15


# -- the worker process ------------------------------------------------------


class _SigkillWindows:
    """A :class:`~repro.shard.soak.WindowKiller` whose kill is SIGKILL.

    Counts every protocol window this process reaches (the worker's
    durability windows plus the wire windows of the serving loop) and,
    at the armed one, kills its own process — no unwinding, no
    destructors, no flushes.  Arm with a flat *kill_at* index (the
    sweep's handle) or a named *(window, nth)* pair (the test matrix's
    handle).
    """

    def __init__(
        self,
        kill_at: Optional[int] = None,
        kill_window: Optional[tuple[str, int]] = None,
    ) -> None:
        self.kill_at = kill_at
        self.kill_window = kill_window
        self.count = 0
        self._by_name: dict[str, int] = {}

    def window(self, name: str, victim) -> None:
        index = self.count
        self.count += 1
        nth = self._by_name.get(name, 0)
        self._by_name[name] = nth + 1
        if index == self.kill_at or (name, nth) == self.kill_window:
            os.kill(os.getpid(), signal.SIGKILL)


def _platter_path(directory: str) -> str:
    return os.path.join(directory, "platter.bin")


def _status_payload(worker: ShardWorker, killer: _SigkillWindows) -> dict:
    """The STATUS_REPORT body: health, windows, and in-doubt state."""
    return {
        "shard_id": worker.shard_id,
        "windows": killer.count,
        "in_doubt": worker.in_doubt(),
        "durable_prepared": sorted(worker._durable_prepared),
        "report": worker.report(),
    }


def _serve_connection(
    worker: ShardWorker,
    killer: _SigkillWindows,
    link,
    drain: threading.Event,
) -> None:
    """Serve one client connection until EOF or drain.

    Each connection gets its **own** replaying server, hence its own
    replay window: two independent clients both start their channels at
    seq 1, so a shared ``(channel, seq)`` window would replay one
    client's responses to the other.  The wire kill windows wrap the 2PC
    frames exactly where the protocol state is split across the network
    — and only for frames actually *applied*: the server calls neither
    the handler nor the after-send hook for a replayed duplicate (the
    client resent after a slow reply), which re-crosses no protocol
    state, so the window census stays timing-independent.
    """

    def dispatch(frame: Frame) -> bytes:
        if frame.type is FrameType.STATUS:
            return protocol.encode_status_report(
                json.dumps(_status_payload(worker, killer))
            )
        if frame.type is FrameType.PREPARE:
            killer.window("wire.prepare_received", worker.shard_id)
        return worker._handle(frame)

    def answered(frame: Frame) -> None:
        if frame.type is FrameType.PREPARE:
            killer.window("wire.vote_sent", worker.shard_id)
        elif frame.type is FrameType.DECIDE:
            killer.window("wire.decide_ack_sent", worker.shard_id)

    try:
        ReplayingServer(dispatch).serve(link, drain, answered)
    finally:
        link.close()


def _worker_main(
    shard_id: int,
    directory: str,
    kill_at: Optional[int],
    kill_window: Optional[tuple[str, int]],
    conn,
) -> None:
    """Entry point of a worker process: open the platter, serve TCP."""
    killer = _SigkillWindows(kill_at, kill_window)
    try:
        path = _platter_path(directory)
        if os.path.exists(path):
            disk = FileDisk.open(path)
            worker = ShardWorker.reopen(shard_id, disk, killer=killer)
        else:
            disk = FileDisk.create(
                path,
                DiskGeometry(track_count=TRACK_COUNT, track_size=TRACK_SIZE),
            )
            worker = ShardWorker(
                shard_id, disk=disk, killer=killer, fresh=True
            )
        listener = Listener("127.0.0.1", 0, receive_timeout=0.1)
    except Exception as error:  # noqa: BLE001 — report setup failures
        conn.send({"ready": False, "error": f"{type(error).__name__}: {error}"})
        conn.close()
        os._exit(3)
    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_args: drain.set())
    conn.send(
        {
            "ready": True,
            "shard_id": shard_id,
            "port": listener.port,
            "in_doubt": worker.in_doubt(),
        }
    )
    conn.close()
    threads: list[threading.Thread] = []
    while not drain.is_set():
        link = listener.accept(timeout=0.2)
        if link is None:
            continue
        thread = threading.Thread(
            target=_serve_connection,
            args=(worker, killer, link, drain),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    # graceful drain: stop accepting, let every connection loop notice
    # the flag, then exit cleanly — SIGTERM must never tear state
    listener.close()
    for thread in threads:
        thread.join(timeout=2.0)
    disk.close()
    os._exit(0)


# -- the parent's handle on one worker ---------------------------------------


class WorkerProc:
    """Spawn/kill/drain one shard worker process."""

    def __init__(self, shard_id: int, directory: str) -> None:
        self.shard_id = shard_id
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.process: Optional[multiprocessing.Process] = None
        self.port: Optional[int] = None
        self.in_doubt_at_start: list[str] = []

    def spawn(
        self,
        kill_at: Optional[int] = None,
        kill_window: Optional[tuple[str, int]] = None,
        timeout: float = 30.0,
    ) -> dict:
        """Start the process; block until its readiness handshake."""
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(self.shard_id, self.directory, kill_at, kill_window, child_conn),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(timeout):
                raise ShardUnavailable(
                    f"shard {self.shard_id} worker never reported ready"
                )
            ready = parent_conn.recv()
        finally:
            parent_conn.close()
        if not ready.get("ready"):
            raise ShardUnavailable(
                f"shard {self.shard_id} worker failed to start: "
                f"{ready.get('error')}"
            )
        self.port = ready["port"]
        self.in_doubt_at_start = list(ready["in_doubt"])
        return ready

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def sigkill(self) -> None:
        """Crash the worker hard (the fault model's kill)."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=5.0)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> Optional[int]:
        """Stop the worker; returns its exit code (0 = clean drain)."""
        process = self.process
        if process is None:
            return None
        if process.is_alive() and drain:
            process.terminate()  # SIGTERM → graceful drain
            process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(timeout)
        code = process.exitcode
        self.process = None
        return code


# -- the cluster of processes ------------------------------------------------


class ProcCluster:
    """N worker processes + the parent's coordinator, one session surface.

    Duck-types the slice of :class:`~repro.shard.cluster.ShardedGemStone`
    that :class:`~repro.shard.cluster.ShardedSession` uses, so the
    session/commit/abort logic — fast path, 2PC, typed failures — runs
    unchanged over real processes and real sockets.
    """

    def __init__(
        self,
        shard_count: int = 2,
        base_dir: Optional[str] = None,
        deadline: float = 6.0,
        receive_timeout: float = WORKER_RECEIVE_TIMEOUT,
        coordinator_killer=None,
        worker_kills: Optional[dict[int, int]] = None,
        worker_kill_windows: Optional[dict[int, tuple[str, int]]] = None,
        generation: int = 0,
    ) -> None:
        self.shard_count = shard_count
        self.generation = generation
        self.deadline = deadline
        self.receive_timeout = receive_timeout
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        self._own_dir = base_dir is None
        self.clock = FaultClock()
        self.obs = Observability()
        self.retry_policy = CommitPolicy(seed=generation)
        self._session_counter = 0
        self._gtid_counter = 0
        #: gtids must stay unique even when bench drivers run one
        #: thread per shard against the same cluster
        self._gtid_lock = threading.Lock()
        self._commit_counter = 0
        self.single_shard_commits = 0
        self.cross_shard_commits = 0

        worker_kills = worker_kills or {}
        worker_kill_windows = worker_kill_windows or {}
        self.procs: list[WorkerProc] = []
        for shard_id in range(shard_count):
            proc = WorkerProc(
                shard_id, os.path.join(self.base_dir, f"shard{shard_id}")
            )
            proc.spawn(
                kill_at=worker_kills.get(shard_id),
                kill_window=worker_kill_windows.get(shard_id),
            )
            self.procs.append(proc)

        self._decision_path = os.path.join(self.base_dir, "decisions.bin")
        if os.path.exists(self._decision_path):
            self._decision_disk = FileDisk.open(self._decision_path)
            log = DecisionLog.open(self._decision_disk)
        else:
            self._decision_disk = FileDisk.create(
                self._decision_path,
                DiskGeometry(track_count=128, track_size=TRACK_SIZE),
            )
            log = DecisionLog.create(self._decision_disk)
        self.coordinator = TwoPhaseCoordinator(
            log, killer=coordinator_killer, obs=self.obs
        )

        self._links: list = [None] * shard_count
        self.exec_channels: list = [None] * shard_count
        for shard_id in range(shard_count):
            self._wire(shard_id)

    # -- wiring --------------------------------------------------------------

    def _wire(self, shard_id: int) -> None:
        """(Re)dial one worker and rebuild both its channels.

        Always a *fresh* connection: the worker keeps one replay cache
        per connection, so reusing channel seq numbering on an old
        connection after a coordinator restart would replay stale
        responses.
        """
        proc = self.procs[shard_id]
        link = dial(
            "127.0.0.1",
            proc.port,
            timeout=5.0,
            receive_timeout=self.receive_timeout,
            registry=self.obs.registry,
        )
        old = self._links[shard_id]
        if old is not None:
            old.close()
        self._links[shard_id] = link
        # no pump: a TCP peer answers on its own schedule
        self.exec_channels[shard_id], twopc = (
            RequestChannel(
                link, None, self.clock, channel=channel,
                deadline=self.deadline, policy=self.retry_policy,
            )
            for channel in (EXEC_CHANNEL, TWOPC_CHANNEL)
        )
        self.coordinator.attach(shard_id, twopc)

    # -- sessions ------------------------------------------------------------

    def login(self, user=None, password=None) -> ShardedSession:
        """Open a session; the unmodified ShardedSession drives us."""
        self._session_counter += 1
        return ShardedSession(self, self._session_counter)

    def next_gtid(self) -> str:
        with self._gtid_lock:
            self._gtid_counter += 1
            return f"g{self.generation}.{self._gtid_counter}"

    # -- worker health -------------------------------------------------------

    def status(self, shard_id: int) -> dict:
        """One worker's STATUS_REPORT (health, windows, in-doubt)."""
        reply = self.exec_channels[shard_id].request(protocol.encode_status())
        return json.loads(reply.fields["payload"])

    def in_doubt(self) -> dict[int, list[str]]:
        """Per-shard gtids still awaiting a decision (empty when clean)."""
        report: dict[int, list[str]] = {}
        for shard_id in range(self.shard_count):
            gtids = self.status(shard_id)["in_doubt"]
            if gtids:
                report[shard_id] = gtids
        return report

    # -- recovery ------------------------------------------------------------

    def restart_coordinator(self) -> None:
        """Replace a dead coordinator from its durable log file.

        The in-memory log is discarded and re-read from the platter
        file — exactly the state a restarted coordinator process would
        see — and every worker link is re-dialed so the new
        coordinator's channels start on fresh replay caches.
        """
        self._decision_disk.close()
        self._decision_disk = FileDisk.open(self._decision_path)
        log = DecisionLog.open(self._decision_disk)
        self.coordinator = TwoPhaseCoordinator(log, obs=self.obs)
        for shard_id in range(self.shard_count):
            if self.procs[shard_id].alive:
                self._wire(shard_id)

    def recover(self) -> dict[str, int]:
        """Respawn the dead, resolve every in-doubt gtid, settle.

        The process analogue of ``ShardedGemStone.recover``: dead
        workers restart from their platters (re-preparing their durable
        records before serving), each re-prepared gtid is answered from
        the decision log (commit if logged, abort presumed), and the
        coordinator re-delivers any logged commits still pending.
        """
        if not self.coordinator.alive:
            self.restart_coordinator()
        for shard_id, proc in enumerate(self.procs):
            if not proc.alive:
                proc.stop(drain=False)  # reap the corpse
                proc.spawn()
                self._wire(shard_id)
        resolved = 0
        for shard_id in range(self.shard_count):
            for gtid in self.status(shard_id)["in_doubt"]:
                commit = self.coordinator.log.decision(gtid)
                self.coordinator.channels[shard_id].request(
                    protocol.encode_decide(gtid, commit)
                )
                resolved += 1
        settled = self.coordinator.settle()
        return {"resolved": resolved, "settled": settled}

    # -- reporting -----------------------------------------------------------

    def shard_report(self) -> dict:
        """The cluster's shard section, assembled over STATUS."""
        total = self.single_shard_commits + self.cross_shard_commits
        return {
            "shard_count": self.shard_count,
            "generation": self.generation,
            "single_shard_commits": self.single_shard_commits,
            "cross_shard_commits": self.cross_shard_commits,
            "cross_shard_ratio": (
                self.cross_shard_commits / total if total else 0.0
            ),
            "in_doubt": sum(
                len(gtids) for gtids in self.in_doubt().values()
            ),
            "coordinator": self.coordinator.report(),
            "per_shard": [
                self.status(shard_id)["report"]
                for shard_id in range(self.shard_count)
            ],
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True, cleanup: bool = True) -> list:
        """Shut the cluster down; returns each worker's exit code."""
        for link in self._links:
            if link is not None:
                link.close()
        exitcodes = [proc.stop(drain=drain) for proc in self.procs]
        self._decision_disk.close()
        if cleanup and self._own_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)
        return exitcodes

    def __enter__(self) -> "ProcCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the SIGKILL sweep -------------------------------------------------------


def _reproducer(seed: int, kill: int) -> str:
    return f"python -m repro.shard.procs --seed {seed} --kill {kill}"


def _drive_proc(cluster: ProcCluster, workload) -> dict[int, str]:
    """Run the workload; every outcome is an ack or a typed error."""
    session = cluster.login()
    outcomes: dict[int, str] = {}
    for t, statements, _expected in workload:
        try:
            for statement in statements:
                session.execute(statement)
            session.commit()
            outcomes[t] = "acked"
        except GemStoneError as error:
            outcomes[t] = type(error).__name__
            try:
                session.abort()
            except GemStoneError:
                pass  # a dead shard's workspace dies with it
    return outcomes


def _census(seed, shards, transactions, base_dir, report, workload):
    """The uninterrupted run: per-node window counts + a sanity check."""
    cluster = ProcCluster(
        shard_count=shards,
        base_dir=base_dir,
        coordinator_killer=WindowKiller(None),
    )
    try:
        outcomes = _drive_proc(cluster, workload)
        coord_windows = cluster.coordinator.killer.count
        worker_windows = [
            cluster.status(shard_id)["windows"] for shard_id in range(shards)
        ]
    finally:
        exitcodes = cluster.close()
    not_acked = [t for t, outcome in outcomes.items() if outcome != "acked"]
    if not_acked:
        report.failures.append(
            ShardFailure(
                -1, "clean", "-", "clean-run",
                f"transactions {not_acked} failed with nobody killed: "
                f"{ {t: outcomes[t] for t in not_acked} }",
                _reproducer(seed, -1),
            )
        )
    bad_exits = [code for code in exitcodes if code != 0]
    if bad_exits:
        report.failures.append(
            ShardFailure(
                -1, "clean", "-", "graceful-drain",
                f"SIGTERM drain exited with {exitcodes}",
                _reproducer(seed, -1),
            )
        )
    return coord_windows, worker_windows


def _check_recovered(report, kill, window, victim, cluster, outcomes,
                     workload, seed):
    """Recover the swept cluster in place; verify every invariant."""

    def fail(invariant: str, detail: str) -> None:
        report.failures.append(
            ShardFailure(
                kill, window, str(victim), invariant, detail,
                _reproducer(seed, kill),
            )
        )

    try:
        stats = cluster.recover()
    except Exception as error:  # noqa: BLE001 — report, keep sweeping
        fail("recovery", f"recover raised {error!r}")
        return
    report.in_doubt_resolved += stats["resolved"]

    # 1. nothing left in doubt, in memory or durably
    for shard_id in range(cluster.shard_count):
        status = cluster.status(shard_id)
        if status["in_doubt"]:
            fail(
                "in-doubt-resolved",
                f"shard {shard_id} still prepared after recovery: "
                f"{status['in_doubt']}",
            )
        if status["durable_prepared"]:
            fail(
                "in-doubt-resolved",
                f"shard {shard_id} kept durable prepared records "
                f"{status['durable_prepared']}",
            )

    # 2–4. atomicity, zero acked loss, presumed-abort safety
    checker = cluster.login()
    for t, _statements, expected in workload:
        values = {key: checker.execute(f"World!{key}") for key in expected}
        checker.abort()
        landed = [key for key in expected if values[key] == expected[key]]
        stray = [
            key for key in expected
            if values[key] is not None and values[key] != expected[key]
        ]
        if stray:
            fail(
                "atomicity",
                f"txn {t} keys hold foreign values: "
                + ", ".join(f"{k}={values[k]!r}" for k in stray),
            )
        if landed and len(landed) != len(expected):
            fail(
                "atomicity",
                f"txn {t} half-committed: {len(landed)}/{len(expected)} "
                f"keys present ({sorted(landed)})",
            )
        if outcomes.get(t) == "acked":
            report.acked_checked += 1
            if len(landed) != len(expected):
                fail(
                    "zero-acked-loss",
                    f"txn {t} was client-acknowledged but only "
                    f"{len(landed)}/{len(expected)} keys survived recovery",
                )

    # 5. liveness: a fresh cross-shard commit over the recovered cluster
    liveness = cluster.login()
    try:
        probe = 0
        placed: set[int] = set()
        statements = []
        while len(placed) < min(2, cluster.shard_count):
            key = f"live{kill}_{probe}"
            shard = shard_of(key, cluster.shard_count)
            if shard not in placed:
                placed.add(shard)
                statements.append(f"World!{key} := 'alive'")
            probe += 1
        for statement in statements:
            liveness.execute(statement)
        liveness.commit()
        report.liveness_commits += 1
    except GemStoneError as error:
        fail(
            "post-recovery-liveness",
            f"fresh cross-shard commit failed: {type(error).__name__}: {error}",
        )


def run_proc_soak(
    seed: int = 2026,
    shards: int = 2,
    transactions: int = 6,
    stride: int = 1,
    kill_points: Optional[list[int]] = None,
) -> ShardSoakReport:
    """SIGKILL every node at every protocol window; verify invariants.

    Kill indexes number the coordinator's windows first, then each
    worker's local windows in shard order, as counted by the clean run.
    """
    workload = _workload(seed, shards, transactions)
    report = ShardSoakReport(
        seed=seed, shards=shards, transactions=transactions, total_windows=0
    )
    coord_windows, worker_windows = _census(
        seed, shards, transactions, None, report, workload
    )
    if report.failures:
        return report

    # the global kill index space: coordinator first, then each worker
    kills: list[tuple] = [("coord", k) for k in range(coord_windows)]
    for shard_id, count in enumerate(worker_windows):
        kills.extend((shard_id, k) for k in range(count))
    report.total_windows = len(kills)

    if kill_points is None:
        sweep = list(range(0, len(kills), stride))
    else:
        bad = [k for k in kill_points if not 0 <= k < len(kills)]
        if bad:
            raise ValueError(
                f"kill points {bad} outside the run's {len(kills)} windows"
            )
        sweep = sorted(set(kill_points))

    for kill in sweep:
        report.kill_points_run += 1
        victim, local = kills[kill]
        if victim == "coord":
            coordinator_killer = WindowKiller(local)
            worker_kills = {}
        else:
            coordinator_killer = WindowKiller(None)
            worker_kills = {victim: local}
        cluster = ProcCluster(
            shard_count=shards,
            coordinator_killer=coordinator_killer,
            worker_kills=worker_kills,
        )
        try:
            outcomes = _drive_proc(cluster, workload)
            if victim == "coord":
                fired = coordinator_killer.fired is not None
                window = (
                    coordinator_killer.fired[0] if fired else "none"
                )
            else:
                # the workload can finish in the instant between the
                # worker's self-SIGKILL and the kernel reaping it, so
                # give death a moment before calling the kill unarmed
                victim_proc = cluster.procs[victim]
                if victim_proc.process is not None:
                    victim_proc.process.join(timeout=2.0)
                fired = not victim_proc.alive
                window = f"worker[{victim}]@{local}"
            if not fired:
                report.failures.append(
                    ShardFailure(
                        kill, "none", str(victim), "kill-armed",
                        "the run finished without reaching its kill window",
                        _reproducer(seed, kill),
                    )
                )
                continue
            _check_recovered(
                report, kill, window, victim, cluster, outcomes,
                workload, seed,
            )
            exitcodes = cluster.close()
            cluster = None
            if any(code != 0 for code in exitcodes):
                report.failures.append(
                    ShardFailure(
                        kill, window, str(victim), "graceful-drain",
                        f"SIGTERM drain exited with {exitcodes}",
                        _reproducer(seed, kill),
                    )
                )
        finally:
            if cluster is not None:
                cluster.close(drain=False)
    return report


# -- CLI ---------------------------------------------------------------------


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.shard.procs",
        description="2PC crash sweep over real worker processes and real "
        "sockets (SIGKILL every node at every protocol window).",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--transactions", type=int, default=6)
    parser.add_argument(
        "--kill", type=int, default=None,
        help="replay one kill point: the global window index the sweep "
        "numbers (coordinator windows first, then each worker's)",
    )
    parser.add_argument("--stride", type=int, default=1,
                        help="subsample kill windows (smoke runs)")
    parser.add_argument("--json", action="store_true",
                        help="print the digest as JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = run_proc_soak(
            seed=args.seed,
            shards=args.shards,
            transactions=args.transactions,
            stride=args.stride,
            kill_points=[args.kill] if args.kill is not None else None,
        )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    if args.json:
        print(json.dumps(report.digest(), indent=2, sort_keys=True))
    else:
        digest = report.digest()
        print(
            f"proc soak: seed={digest['seed']} "
            f"shards={digest['shards']} "
            f"windows={digest['total_windows']} "
            f"kills={digest['kill_points_run']} "
            f"acked_checked={digest['acked_checked']} "
            f"resolved={digest['in_doubt_resolved']} "
            f"liveness={digest['liveness_commits']}"
        )
    for failure in report.failures:
        print(failure.describe())
    if report.ok:
        print("ok: SIGKILL at every window; zero acked loss, zero "
              "half-committed state, nothing left in doubt")
        return 0
    print(f"FAILED: {len(report.failures)} invariant violations")
    return 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
