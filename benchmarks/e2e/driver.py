"""The generator process: start the system, drive it, check it, crash it.

A *rig* owns one running system under test — a spawned front-door
server, or a ``ProcCluster`` whose workers are forked from here — and
the client connection(s) into it.  ``run_closed`` and ``run_open`` drive
a rig with a pre-generated op list, time every op from outside, and
compare every reply to the model the op carries.  All load comes from
this one process: one thread and one connection on the closed loops,
one event loop and two connections on the open loop.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from typing import Any, Optional

from repro.errors import GemStoneError

from . import ROOT, server
from .workloads import CLUSTER_SHARDS, PASSWORD, USER, Op, Workload

#: longer than any op here, so a slow reply is waited for rather than
#: re-requested (a resend would be answered from the replay window and
#: make frame counts depend on timing)
REPLY_TIMEOUT_S = 2.0


class OpRecord:
    """What the client saw of one op."""

    __slots__ = ("start", "end", "ok", "keys")

    def __init__(self, start: float) -> None:
        #: closed loop: when the op was issued; open loop: when it was due
        self.start = start
        self.end = start
        self.ok = False
        #: open loop, traced: the (channel, seq) of each request sent
        self.keys: list = []


# -- the front-door rig ------------------------------------------------------


class FrontDoorRig:
    """A server process behind ``serve_frontdoor`` plus the client links."""

    def __init__(self, workload: Workload, seed: int, directory: str,
                 trace: bool, bindings: Optional[int] = None) -> None:
        self.workload = workload
        self.directory = directory
        self.spec = {
            "workload": workload.name, "seed": seed, "trace": trace,
            "directory": directory, "bindings": bindings,
        }
        self.process = None
        self.control = None
        self.port = 0
        self.connection = None  # closed loop: the one TcpHostConnection
        self.last_snapshot: dict = {}

    def setup(self) -> None:
        """Create + load the store, start serving, log the client in."""
        os.makedirs(self.directory, exist_ok=True)
        ours, theirs = socket.socketpair()
        with theirs:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.server",
                 json.dumps(self.spec), str(theirs.fileno())],
                pass_fds=[theirs.fileno()], cwd=ROOT, stdin=subprocess.DEVNULL,
            )
        self.control = Connection(ours.detach())
        ready = self._reply(timeout=120.0)
        if not ready.get("ready"):
            raise RuntimeError(f"server failed to start: {ready.get('error')}")
        self.port = ready["port"]
        if self.workload.loop == "closed":
            self.connection = self.login()

    def login(self):
        from repro.net import TcpHostConnection

        connection = TcpHostConnection(
            "127.0.0.1", self.port, receive_timeout=REPLY_TIMEOUT_S
        )
        connection.login(USER, PASSWORD)
        return connection

    def _reply(self, timeout: float = 30.0) -> Any:
        if not self.control.poll(timeout):
            raise RuntimeError("server process did not answer its control pipe")
        return self.control.recv()

    def pids(self) -> list[int]:
        return [self.process.pid]

    def perform(self, op: Op) -> bool:
        connection = self.connection
        for source, expected in zip(op.sources, op.expects):
            value, _display = connection.execute(source)
            if value != expected:
                return False
        return not op.commit or connection.commit() is not None

    def snapshot(self) -> dict:
        """Counters from inside the server, normalised for ``measure``."""
        self.control.send("snapshot")
        raw = self._reply()
        self.last_snapshot = raw
        return {
            "disk_bytes": raw["disk_writes"] * raw["track_size"],
            "user_bytes_loaded": raw["user_bytes_loaded"],
            "raw": raw,
        }

    def link_counters(self) -> tuple[int, int]:
        """(frames, bytes) on the client's link so far, both directions."""
        return _link_counters([self.connection])

    def span_files(self) -> list[str]:
        self.control.send("spans")
        path = self._reply(timeout=60.0)
        return [path] if path else []

    def crash(self) -> None:
        """SIGKILL the server: no unwinding, no flushes."""
        self.process.kill()
        self.process.wait(10.0)

    def verify(self, expected: dict[str, Any]) -> tuple[int, float]:
        """Reopen the platter and read back every acked write.

        Returns (mismatches, milliseconds spent reopening).
        """
        if self.workload.disk != "file":
            return 0, 0.0
        from repro.db import GemStone
        from repro.storage.filedisk import FileDisk

        started = time.perf_counter()
        disk = FileDisk.open(server.platter_path(self.directory))
        database = GemStone.open(disk, cache_capacity=self.workload.cache_capacity)
        recover_ms = (time.perf_counter() - started) * 1000.0
        session = database.login()
        try:
            mismatches = sum(
                1 for path, value in expected.items()
                if _read_back(session, path) != value
            )
        finally:
            session.close()
            disk.close()
        return mismatches, recover_ms

    def finish(self) -> tuple[int, int]:
        """(allocated bytes, allocated tracks) when the run ended."""
        raw = self.last_snapshot
        tracks = raw["storage"]["tracks_allocated"]
        return tracks * raw["track_size"], tracks

    def destroy(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.process is not None and self.process.poll() is None:
            try:
                self.control.send("stop")
                self.process.wait(5.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(10.0)
        if self.control is not None:
            self.control.close()
            self.control = None
        shutil.rmtree(self.directory, ignore_errors=True)


def _read_back(session, path: str) -> Any:
    try:
        return session.execute(path)
    except GemStoneError as error:
        return error


# -- the cluster rig ---------------------------------------------------------


class DiskByteCounter:
    """Bytes handed to ``FileDisk.write_track``, summed across forks.

    The one wrapper the untraced run installs (README, "exceptions"):
    shard workers are forked by ``ProcCluster`` and report no disk
    counters over STATUS, so the count lives in shared memory the
    children inherit.  Each process adds to its own slot — no lock for a
    SIGKILL to die holding.
    """

    SLOTS = 16

    def __init__(self) -> None:
        from repro.storage.filedisk import FileDisk

        self._slots = multiprocessing.get_context("fork").RawArray("q", self.SLOTS)
        self._slot = 0
        self._forks = 0
        counter = self

        original = FileDisk.write_track

        def write_track(disk, track: int, data: bytes) -> None:
            original(disk, track, data)
            counter._slots[counter._slot] += disk.track_size

        write_track.__wrapped__ = original
        FileDisk.write_track = write_track
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self) -> None:
        self._forks += 1

    def _in_child(self) -> None:
        self._slot = self._forks % self.SLOTS

    def total(self) -> int:
        return sum(self._slots)


class ClusterRig:
    """``ProcCluster``: forked workers on FileDisk, coordinator in here."""

    def __init__(self, workload: Workload, seed: int, directory: str,
                 counter: DiskByteCounter) -> None:
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.counter = counter
        self.cluster = None
        self.session = None
        self.user_bytes_loaded = 0
        self._bytes_at_start = 0

    def setup(self) -> None:
        from repro.shard.procs import ProcCluster

        os.makedirs(self.directory, exist_ok=True)
        self._bytes_at_start = self.counter.total()
        self.cluster = ProcCluster(
            shard_count=CLUSTER_SHARDS, base_dir=self.directory,
            receive_timeout=REPLY_TIMEOUT_S,
        )
        loader = self.cluster.login()
        self.user_bytes_loaded = self.workload.load(None, loader, self.seed)
        loader.close()
        self.session = self.cluster.login()

    def pids(self) -> list[int]:
        return [proc.process.pid for proc in self.cluster.procs]

    def perform(self, op: Op) -> bool:
        session = self.session
        for source, expected in zip(op.sources, op.expects):
            if session.execute(source) != expected:
                return False
        return session.commit() is not None

    def snapshot(self) -> dict:
        reports = [self.cluster.status(shard)["report"]
                   for shard in range(CLUSTER_SHARDS)]
        return {
            "disk_bytes": self.counter.total() - self._bytes_at_start,
            "user_bytes_loaded": self.user_bytes_loaded,
            "raw": {
                "commits": sum(r["commits"] for r in reports),
                "aborts": sum(r["aborts"] for r in reports),
            },
        }

    def link_counters(self) -> tuple[int, int]:
        registry = self.cluster.obs.registry
        return (registry.count_of("net.frames_sent")
                + registry.count_of("net.frames_received"),
                registry.count_of("net.bytes_sent")
                + registry.count_of("net.bytes_received"))

    def span_files(self) -> list[str]:
        """Ask each live worker (SIGUSR1) to write its spans; wait for them."""
        paths = []
        for pid in self.pids():
            path = os.path.join(self.directory, f"spans.{pid}.json")
            os.kill(pid, signal.SIGUSR1)
            deadline = time.monotonic() + 30.0
            while not os.path.exists(path):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"worker {pid} never dumped its spans")
                time.sleep(0.02)
            paths.append(path)
        return paths

    def crash(self) -> None:
        for proc in self.cluster.procs:
            proc.sigkill()

    def verify(self, expected: dict[str, Any]) -> tuple[int, float]:
        started = time.perf_counter()
        try:
            self.cluster.recover()  # respawn from the platters, resolve in-doubt
        except GemStoneError:  # a platter that will not reopen lost everything
            return len(expected), (time.perf_counter() - started) * 1000.0
        recover_ms = (time.perf_counter() - started) * 1000.0
        session = self.cluster.login()
        try:
            mismatches = sum(
                1 for path, value in expected.items()
                if _read_back(session, path) != value
            )
        finally:
            session.close()
        return mismatches, recover_ms

    def finish(self) -> tuple[int, int]:
        """(allocated bytes, allocated tracks) over every platter.

        The workers report no occupancy over STATUS, so the cluster is
        drained and the platter files are read back here.
        """
        from repro.shard.decisions import DecisionLog
        from repro.storage.filedisk import FileDisk
        from repro.storage.stable import StableStore

        directories = [proc.directory for proc in self.cluster.procs]
        self.cluster.close(cleanup=False)
        self.cluster = None
        total_bytes = total_tracks = 0
        for directory in directories:
            disk = FileDisk.open(os.path.join(directory, "platter.bin"))
            try:
                tracks = StableStore.open(disk).storage_report()["tracks_allocated"]
            finally:
                disk.close()
            total_tracks += tracks
            total_bytes += tracks * disk.track_size
        disk = FileDisk.open(os.path.join(self.directory, "decisions.bin"))
        try:
            tracks = len(DecisionLog.open(disk).tracks.allocated_tracks())
        finally:
            disk.close()
        return total_bytes + tracks * disk.track_size, total_tracks + tracks

    def destroy(self) -> None:
        self.session = None
        if self.cluster is not None:
            self.cluster.close(drain=False, cleanup=False)
            self.cluster = None
        shutil.rmtree(self.directory, ignore_errors=True)


# -- loops -------------------------------------------------------------------


def run_closed(rig, ops: list[Op], deadline: float, every: int = 0,
               mark=None) -> list[OpRecord]:
    """One client, one op at a time; stops early only past *deadline*.

    With *every*, *mark()* is called before each block of that many ops.
    """
    records = []
    perform = rig.perform
    for position, op in enumerate(ops):
        if every and position % every == 0:
            mark()
        record = OpRecord(time.perf_counter())
        try:
            record.ok = perform(op)
        except GemStoneError:
            record.ok = False
        record.end = time.perf_counter()
        records.append(record)
        if record.end > deadline:
            break
    return records


async def run_open(rig: FrontDoorRig, ops: list[Op], offsets: list[float],
                   warm: int, traced: bool, on_measure_start, every: int,
                   mark) -> dict:
    """Issue each op at its due time whether or not earlier ones are done.

    The first *warm* ops are issued and checked like the rest; once they
    have drained, *on_measure_start()* is called and the schedule
    restarts for the measured ops; *mark()* is called before each block
    of *every* of them is issued.  Returns the records, how late each
    op was issued, the client's link counters around the measured phase
    and when it ended.
    """
    from repro.frontdoor.client import AsyncHostConnection
    from repro.net import stream_link_factory

    from .tracing import current_request_keys

    workload = rig.workload
    connections = []
    for index in range(workload.connections):
        connection = await AsyncHostConnection.open(
            None,
            link_factory=stream_link_factory(
                "127.0.0.1", rig.port, f"e2e-{os.getpid()}-{index}"
            ),
            window=workload.window,
            reply_timeout=REPLY_TIMEOUT_S,
            channel=index + 1,
        )
        await connection.login(USER, PASSWORD)
        connections.append(connection)

    records = [OpRecord(0.0) for _ in ops]
    late = [0.0] * len(ops)
    # a session has one transaction open at a time: a write waits for the
    # connection's previous write to commit (reads pipeline freely), so
    # every COMMIT persists exactly the one write it belongs to
    transaction = {id(connection): asyncio.Lock() for connection in connections}

    async def one(record: OpRecord, op: Op, connection) -> None:
        if traced:
            current_request_keys.set(record.keys)
        try:
            if op.commit:
                async with transaction[id(connection)]:
                    record.ok = await request(op, connection)
            else:
                record.ok = await request(op, connection)
        except GemStoneError:
            record.ok = False
        record.end = time.perf_counter()

    async def request(op: Op, connection) -> bool:
        ok = True
        for source, expected in zip(op.sources, op.expects):
            value, _display = await connection.execute(source)
            ok = ok and value == expected
        if op.commit:
            ok = ok and await connection.commit() is not None
        return ok

    loop = asyncio.get_running_loop()
    tasks = []
    links_before = (0, 0)
    origin = time.perf_counter() + 0.05
    for position, (op, offset) in enumerate(zip(ops, offsets)):
        if position == warm:
            await asyncio.gather(*tasks)  # let the warm-up drain
            on_measure_start()
            links_before = _link_counters(connections)
            origin = time.perf_counter() + 0.05 - offset
        if position >= warm and (position - warm) % every == 0:
            mark()
        due = origin + offset
        # a plain sleep: the loop's timer rounds up to a millisecond (the
        # lateness is reported), but spinning to do better would take CPU
        # from the server on a two-thread box
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        records[position].start = due
        late[position] = max(0.0, time.perf_counter() - due)
        connection = connections[position % len(connections)]
        tasks.append(loop.create_task(one(records[position], op, connection)))
    await asyncio.gather(*tasks)
    finished = time.perf_counter()
    links_after = _link_counters(connections)
    for connection in connections:
        await connection.close()
    return {
        "records": records, "late": late[warm:], "finished": finished,
        "links": (links_after[0] - links_before[0], links_after[1] - links_before[1]),
    }


def _link_counters(connections) -> tuple[int, int]:
    """(frames, bytes), both directions, summed over host connections."""
    frames = bytes_ = 0
    for connection in connections:
        end = connection.host_end
        frames += end.frames_sent + end.frames_received
        bytes_ += end.bytes_sent + end.bytes_received
    return frames, bytes_
