"""Real OS processes for shard workers — the cluster leaves the nest.

:mod:`repro.shard.cluster` is the cluster; this module is the host that
runs its workers for real, and the constructor that picks it:

* :class:`WorkerProc` places each shard worker in its **own process**
  (``multiprocessing``, fork start method) owning a
  :class:`~repro.storage.filedisk.FileDisk` platter in its own
  directory, serving the exact :class:`~repro.shard.worker.ShardWorker`
  dispatch over the exact ``repro.net`` TCP framing — one replaying
  server per accepted connection;
* it dies by **SIGKILL**, not by exception: the worker's
  :class:`~repro.sweep.WindowKiller` carries a kill action that
  signals its own process mid-protocol — no unwinding, no destructors,
  no flushes — and a respawn is a new process reopening the platter
  file (``FileDisk.open`` → ``ShardWorker.reopen``);
* SIGTERM is a graceful drain: stop accepting, let every connection
  loop notice, close the platter, exit 0;
* :class:`ProcCluster` is :class:`~repro.shard.cluster.ShardedGemStone`
  constructed over these hosts, its decision log on a ``FileDisk`` of
  its own beside the worker directories.

Everything else — sessions, 2PC, ``STATUS``, recovery, the kill sweep —
is the cluster's and the sweep's own code, shared with the in-memory
host.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
from typing import Optional

from ..errors import ShardUnavailable
from ..net.tcp import Listener, dial
from ..storage.disk import DiskGeometry
from ..storage.filedisk import FileDisk
from .cluster import ShardedGemStone
from .decisions import DecisionLog
from .worker import ShardWorker

#: per-worker platter geometry (matches the in-memory host's defaults)
TRACK_COUNT = 1024
TRACK_SIZE = 512

#: receive budget on parent→worker links, seconds: small enough that a
#: SIGKILLed worker costs the caller well under a second before the
#: typed ShardUnavailable, large enough that a loaded localhost
#: round-trip never times out spuriously
WORKER_RECEIVE_TIMEOUT = 0.15


# -- the worker process ------------------------------------------------------


def _sigkill_self(name: str, victim) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _serve_connection(worker: ShardWorker, link, drain: threading.Event) -> None:
    """Run the worker's server on one connection until EOF or drain."""
    try:
        worker.serve(link, drain, worker.connection())
    finally:
        link.close()


def _worker_main(shard_id: int, directory: str, killer, conn) -> None:
    """Entry point of a worker process: open the platter, serve TCP."""
    try:
        path = os.path.join(directory, "platter.bin")
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
    conn.send({"ready": True, "port": listener.port})
    conn.close()
    threads: list[threading.Thread] = []
    while not drain.is_set():
        link = listener.accept(timeout=0.2)
        if link is None:
            continue
        thread = threading.Thread(
            target=_serve_connection, args=(worker, link, drain), daemon=True,
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


# -- the host: the parent's handle on one worker process ---------------------


class WorkerProc:
    """A shard worker in its own process, on a platter file.

    The host interface of :class:`~repro.shard.cluster.MemoryHost`,
    for real: ``spawn`` forks, ``connect`` dials, death is SIGKILL.
    """

    def __init__(self, shard_id: int, directory: str,
                 receive_timeout: float = WORKER_RECEIVE_TIMEOUT) -> None:
        self.shard_id = shard_id
        self.directory = directory
        self.receive_timeout = receive_timeout
        os.makedirs(directory, exist_ok=True)
        self.process: Optional[multiprocessing.Process] = None
        self.port: Optional[int] = None

    def spawn(self, killer=None, timeout: float = 30.0) -> None:
        """Start the process; block until its readiness handshake."""
        if killer is not None:
            killer = killer.for_node(self.shard_id, _sigkill_self)
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(self.shard_id, self.directory, killer, child_conn),
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

    def connect(self, registry):
        """A fresh connection to the worker → ``(link, no pump)``: a TCP
        peer answers on its own schedule."""
        link = dial(
            "127.0.0.1", self.port, timeout=5.0,
            receive_timeout=self.receive_timeout, registry=registry,
        )
        return link, None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def sigkill(self) -> None:
        """Crash the worker hard (the fault model's kill)."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=5.0)

    def await_death(self, timeout: float = 3.0) -> bool:
        """Whether the worker is dead, giving a process that has just
        signalled itself a moment to be reaped."""
        if self.process is not None:
            self.process.join(timeout)
        return not self.alive

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


class _FileLog:
    """The coordinator's platter file, ``<base_dir>/decisions.bin``."""

    def __init__(self, base_dir: str, own_dir: bool) -> None:
        self.base_dir = base_dir
        self.own_dir = own_dir
        self.path = os.path.join(base_dir, "decisions.bin")
        self.disk: Optional[FileDisk] = None

    def load(self) -> DecisionLog:
        """The decision log as a (re)started coordinator finds it: read
        back from the file, byte for byte what a new process would see."""
        if self.disk is not None:
            self.disk.close()
        if os.path.exists(self.path):
            self.disk = FileDisk.open(self.path)
            return DecisionLog.open(self.disk)
        self.disk = FileDisk.create(
            self.path, DiskGeometry(track_count=128, track_size=TRACK_SIZE)
        )
        return DecisionLog.create(self.disk)

    def close(self, cleanup: bool) -> None:
        self.disk.close()
        if cleanup and self.own_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)


# -- the cluster of processes ------------------------------------------------


class ProcCluster(ShardedGemStone):
    """The cluster over worker processes: N :class:`WorkerProc` hosts in
    ``<base_dir>/shard<i>/``, the coordinator's log beside them.

    Only the constructor differs from
    :class:`~repro.shard.cluster.ShardedGemStone`; *base_dir* may hold
    the platters of an earlier cluster, which then reopen.
    """

    def __init__(
        self,
        shard_count: int = 2,
        base_dir: Optional[str] = None,
        deadline: float = 6.0,
        receive_timeout: float = WORKER_RECEIVE_TIMEOUT,
        killer=None,
        generation: int = 0,
    ) -> None:
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="repro-cluster-")
        #: the hosts, under the name process-level callers know them by
        self.procs = [
            WorkerProc(
                shard_id, os.path.join(self.base_dir, f"shard{shard_id}"),
                receive_timeout,
            )
            for shard_id in range(shard_count)
        ]
        self._assemble(
            self.procs, _FileLog(self.base_dir, own_dir=base_dir is None),
            killer, generation, deadline,
        )

