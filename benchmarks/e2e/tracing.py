"""Spans recorded from outside: wrappers around the layers' public callables.

``install(role)`` replaces each callable listed in ``_targets`` by a
wrapper that records one span per call — name, start, end, the span
that caused it, a request key where the call's arguments carry one, and
one number of interest (bytes encoded, rows examined).  Nothing under
``src/`` knows it is being watched; the traced run is a separate run,
and end-to-end metrics are never taken from it.

Spans stay in memory (one list per thread) until ``dump`` writes them
to a file in the run's scratch directory.  Clocks are
``time.perf_counter`` everywhere: CLOCK_MONOTONIC is shared by every
process on the host, so spans from the generator, the server and the
forked shard workers line up on one axis.

Forked workers inherit the wrappers; a child-side fork hook empties
their inherited buffers and arms SIGUSR1 to dump (a worker runs
``procs._worker_main`` and offers no other way in).
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import signal
import threading
from time import perf_counter

#: the open-loop generator sets this to a list; client-side sends append
#: the (channel, seq) they carry, tying requests to the op that sent them
current_request_keys: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_request_keys", default=None
)


class Tracer:
    """Per-process span store."""

    def __init__(self, role: str) -> None:
        #: "server" | "client" | "worker": how the aggregator reads the
        #: net spans of this process
        self.role = role
        self.buffers: list[list] = []
        self.local = threading.local()
        self._lock = threading.Lock()

    def thread_state(self) -> tuple[list, list]:
        """This thread's (span buffer, open-span stack), made on first use."""
        local = self.local
        local.buf, local.stack = [], []
        with self._lock:
            self.buffers.append(local.buf)
        return local.buf, local.stack

    def reset(self, role: str) -> None:
        """Forget everything recorded so far (a forked child's first act)."""
        self.role = role
        self.buffers = []
        self.local = threading.local()
        self._lock = threading.Lock()

    def dump(self, directory: str) -> str:
        """Write every finished span to ``spans.<pid>.json``; returns the path.

        A span is ``[name, start, end, parent, key, extra]``; *parent*
        indexes the same thread's list (-1 for a root).
        """
        path = os.path.join(directory, f"spans.{os.getpid()}.json")
        threads = [_compact(buffer) for buffer in list(self.buffers)]
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "pid": os.getpid(), "threads": threads},
                      handle)
        os.replace(path + ".tmp", path)  # readers never see half a file
        return path


def _compact(buffer: list) -> list:
    """Drop still-open spans, re-pointing parents past the holes."""
    snapshot = list(buffer)
    new_index, out = {}, []
    for index, span in enumerate(snapshot):
        if span is None:
            continue
        new_index[index] = len(out)
        out.append(span)
    return [
        (name, t0, t1, new_index.get(parent, -1), key, extra)
        for name, t0, t1, parent, key, extra in out
    ]


# -- wrappers ----------------------------------------------------------------


def _sync(tracer: Tracer, name: str, fn, after=None):
    """Wrap a plain callable.  *after(args, result)* -> (key, extra)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local = tracer.local
        try:
            buf, stack = local.buf, local.stack
        except AttributeError:
            buf, stack = tracer.thread_state()
        index = len(buf)
        buf.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        key = extra = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                key, extra = after(args, result)
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            buf[index] = (name, t0, t1, parent, key, extra)

    return wrapper


def _drained(tracer: "Tracer", fn):
    """Make a generator function eager, so a span around it sees its work.

    ``Directory.range`` yields lazily; timed as is, the probe's cost
    would land in whoever iterates.  The plan operators consume the
    whole range anyway, so only the moment the work happens moves.  The
    caller still gets an iterator; the entry count is left for the span.
    """

    @functools.wraps(fn)
    def eager(*args, **kwargs):
        items = list(fn(*args, **kwargs))
        tracer.local.drained = len(items)
        return iter(items)

    return eager


def _async_send(tracer: Tracer, name: str, fn, decode):
    """Wrap ``StreamLink.send``: a root span per frame, keyed.

    Coroutines interleave, so the span joins no stack.  On the server
    the key comes from the ``Executor.seal`` that produced these very
    bytes (nothing awaits between the two); on the client the envelope
    is decoded for it (with the unwrapped *decode*).
    """

    @functools.wraps(fn)
    async def wrapper(self, frame):
        local = tracer.local
        try:
            buf = local.buf
        except AttributeError:
            buf, _ = tracer.thread_state()
        key = None
        if tracer.role == "client":
            try:
                decoded = decode(frame)
            except Exception:  # noqa: BLE001 — HELLO and friends carry no seq
                decoded = None
            if decoded is not None and decoded.seq is not None:
                key = (decoded.channel, decoded.seq)
                keys = current_request_keys.get()
                if keys is not None:
                    keys.append(key)
        else:
            sealed = getattr(local, "sealed", None)
            if sealed is not None and sealed[0] is frame:
                key = sealed[1]
        t0 = perf_counter()
        try:
            return await fn(self, frame)
        finally:
            buf.append((name, t0, perf_counter(), -1, key, len(frame)))

    return wrapper


def _frame_key(frame):
    return None if frame.seq is None else (frame.channel, frame.seq)


# -- what gets wrapped -------------------------------------------------------


def _targets(tracer: Tracer):
    """(owner, attribute, span name, after) for every wrapped callable.

    Module-level functions are patched where they are *looked up*: a
    ``from .codec import encode_object`` binds the name into the
    importing module, so that module's attribute is the one to replace.
    """
    import repro.opal.declarative as declarative
    import repro.shard.cluster as shard_cluster
    import repro.storage.stable as stable
    from repro.concurrency.sessions import SessionObjectManager
    from repro.concurrency.transactions import TransactionManager
    from repro.directories.directory import Directory
    from repro.directories.manager import DirectoryManager
    from repro.executor import protocol
    from repro.executor.executor import Executor
    from repro.govern.admission import AdmissionController
    from repro.net.tcp import TcpLinkEnd
    from repro.opal.compiler import Compiler
    from repro.opal.interpreter import OpalEngine
    from repro.shard.cluster import ShardedSession
    from repro.shard.coordinator import TwoPhaseCoordinator
    from repro.shard.decisions import DecisionLog
    from repro.shard.rpc import RequestChannel
    from repro.stdm.algebra import Plan
    from repro.storage.boxer import Boxer
    from repro.storage.commit import CommitManager
    from repro.storage.disk import SimulatedDisk
    from repro.storage.filedisk import FileDisk
    from repro.storage.linker import Linker
    from repro.storage.stable import StableStore
    from repro.storage.tracks import TrackManager

    def keyed_by_frame(args, _result):
        return _frame_key(args[1]), None

    def decode_key(_args, frame):
        return _frame_key(frame), None

    def seal_key(args, sealed):
        key = _frame_key(args[1])
        # remembered for the send that follows in the same loop step
        tracer.local.sealed = (sealed, key)
        return key, len(sealed)

    def result_len(_args, result):
        return None, len(result)

    def drained_len(_args, _result):
        return None, tracer.local.drained

    def run_counts(args, result):
        # rows the plan examined, packed with the rows it returned
        return None, [args[1].examined, len(result)]

    def received(_args, frame):
        return None, (-1 if frame is None else len(frame))

    def sent(args, _result):
        return None, len(args[1])

    return [
        # executor
        (Executor, "decode", "executor.decode", decode_key),
        (Executor, "lookup_replay", "executor.lookup_replay", keyed_by_frame),
        (Executor, "gate", "executor.gate", keyed_by_frame),
        (Executor, "apply", "executor.apply", keyed_by_frame),
        (Executor, "seal", "executor.seal", seal_key),
        (protocol, "decode_frame", "executor.decode_frame", None),
        (protocol, "encode_result", "executor.encode_result", None),
        # govern
        (AdmissionController, "admit_request", "govern.admit_request", None),
        # opal
        (OpalEngine, "execute", "opal.execute", None),
        (Compiler, "compile_source", "opal.compile", None),
        # stdm
        (declarative, "try_declarative_filter", "stdm.filter", None),
        (declarative.BlockTranslator, "translate", "stdm.translate", None),
        (declarative, "best_plan", "stdm.best_plan", None),
        (Plan, "run", "stdm.run", run_counts),
        # directories
        (Directory, "lookup", "directories.lookup", result_len),
        (Directory, "range", "directories.range", drained_len),
        (DirectoryManager, "on_commit", "directories.on_commit", None),
        # concurrency
        (SessionObjectManager, "bind", "concurrency.bind", None),
        (SessionObjectManager, "commit", "concurrency.session_commit", None),
        (TransactionManager, "commit", "concurrency.commit", None),
        (TransactionManager, "prepare", "concurrency.prepare", None),
        (TransactionManager, "commit_prepared", "concurrency.commit_prepared", None),
        # storage
        (StableStore, "persist", "storage.persist", None),
        (stable, "encode_object", "storage.encode", result_len),
        (stable, "decode_object_full", "storage.decode", None),
        (Linker, "incorporate", "storage.link", None),
        (Boxer, "pack", "storage.box", None),
        (CommitManager, "commit", "storage.safewrite", None),
        (TrackManager, "write_group", "storage.write_group", None),
        (SimulatedDisk, "write_track", "storage.write_track", None),
        (SimulatedDisk, "read_track", "storage.read_track", None),
        (FileDisk, "write_track", "storage.file_write", None),
        (os, "fsync", "storage.fsync", None),
        # net (blocking ends: the closed-loop client, the shard links)
        (TcpLinkEnd, "send", "net.send", sent),
        (TcpLinkEnd, "receive", "net.receive", received),
        # shard (coordinator side; the workers run the layers above)
        (shard_cluster, "route_statement", "shard.route", None),
        (ShardedSession, "commit", "shard.session_commit", None),
        (TwoPhaseCoordinator, "commit", "shard.coordinator_commit", None),
        (RequestChannel, "request", "shard.rpc", _rpc_frame_type),
        (DecisionLog, "record_commit", "shard.log_record", None),
        (DecisionLog, "forget", "shard.log_forget", None),
    ]


def _rpc_frame_type(args, _result):
    """Name an RPC by its frame type (the first byte of the inner frame)."""
    from repro.executor.protocol import FrameType

    inner = args[1]
    return None, FrameType(inner[0]).name


def install(role: str) -> Tracer:
    """Patch every target in this process (call once, before the first
    ``repro`` object exists); returns the process's tracer."""
    from repro.directories.directory import Directory
    from repro.executor.protocol import decode_frame
    from repro.net.aio import StreamLink

    tracer = Tracer(role)
    Directory.range = _drained(tracer, Directory.range)
    StreamLink.send = _async_send(tracer, "net.asend", StreamLink.send, decode_frame)
    for owner, attribute, name, after in _targets(tracer):
        setattr(owner, attribute, _sync(tracer, name, getattr(owner, attribute), after))
    return tracer


def arm_fork_dump(tracer: Tracer, directory: str) -> None:
    """Make forked children start clean and dump their spans on SIGUSR1."""

    def in_child() -> None:
        tracer.reset("worker")
        signal.signal(signal.SIGUSR1, lambda *_args: tracer.dump(directory))

    os.register_at_fork(after_in_child=in_child)
