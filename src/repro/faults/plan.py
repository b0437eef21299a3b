"""Deterministic, seed-driven fault schedules.

The paper's operational claim (section 6) is that safe writes, the
replicated volume, and the host link keep the shared object space
consistent across failures.  To *walk* every one of those recovery paths
— rather than assume them — this module produces fault schedules that
are a pure function of a seed and the operation sequence:

* :class:`FaultClock` is the only notion of time (simulated units), so
  backoff and latency are deterministic (a socket stall sleeps);
* :class:`FaultSpec` declares the fault mix (rates and costs);
* :class:`FaultPlan` turns a seed + spec into per-operation decisions,
  recording every decision so two runs can be compared byte for byte;
* :class:`WindowKiller` is the exact kind of plan: it counts one node's
  windows and kills the node at one of them.

Wrapper classes consume the plan: :class:`~repro.faults.disk.FaultyDisk`
injects disk faults, :mod:`~repro.faults.link` frame and socket faults,
and :class:`~repro.faults.resilience.ResilientDisk` is the policy layer
that masks what can be masked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Iterable, Optional


class FaultClock:
    """Simulated time for fault schedules and backoff.

    A plain monotone accumulator: wrappers charge latency to it, retry
    policies charge backoff to it.  There is deliberately no way to read
    the wall clock, so every schedule is reproducible.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time, in arbitrary units."""
        return self._now

    def advance(self, units: float) -> None:
        """Move time forward; negative steps are rejected."""
        if units < 0:
            raise ValueError("the fault clock cannot run backwards")
        self._now += units


@dataclass(frozen=True)
class FaultSpec:
    """The fault mix a plan draws from (all rates are probabilities)."""

    #: disk: probability an I/O raises a retryable ``TransientDiskError``
    transient_rate: float = 0.0
    #: disk: probability a successful write silently rots on the platter
    bit_rot_rate: float = 0.0
    #: disk: probability an I/O costs extra simulated time
    latency_rate: float = 0.0
    #: simulated time units charged per injected latency event
    latency_cost: float = 5.0
    #: link: probability an outgoing frame is dropped
    drop_rate: float = 0.0
    #: link: probability an outgoing frame is delivered twice
    duplicate_rate: float = 0.0
    #: link: probability an outgoing frame is truncated in transit
    truncate_rate: float = 0.0
    #: link: probability an outgoing frame is *reordered* — held back and
    #: delivered after the next frame on the same direction
    reorder_rate: float = 0.0
    #: socket: probability a send is cut mid-frame (then the link is
    #: aborted), dribbled one byte per write, or first sleeps
    #: ``stall_seconds`` of wall-clock time
    disconnect_rate: float = 0.0
    dribble_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.02
    #: cap on injected faults (None = unbounded)
    max_faults: int | None = None


@dataclass(frozen=True)
class FaultEvent:
    """One recorded decision: what the plan did to one operation."""

    index: int  #: decision sequence number
    channel: str  #: "disk" or "link"
    operation: str  #: "read", "write", or "send"
    target: int  #: track number or frame length
    fault: str  #: "none", "transient", "bit-rot", "latency", "crash", ...


class FaultPlan:
    """A seeded schedule of faults; identical seeds yield identical runs.

    Random faults are drawn from ``spec``; *crash points* are explicit
    and exact — ``crash_at={n}`` downs the disk on the n-th write the
    plan sees (0-based), which is what the soak harness sweeps, and
    ``crash_reads_at={n}`` downs it on the n-th *read* — the only way
    to crash inside read-only paths such as recovery itself.
    """

    def __init__(
        self,
        seed: int,
        spec: FaultSpec | None = None,
        crash_at: Iterable[int] = (),
        crash_reads_at: Iterable[int] = (),
    ) -> None:
        self.seed = seed
        self.spec = spec or FaultSpec()
        self.crash_at = frozenset(crash_at)
        self.crash_reads_at = frozenset(crash_reads_at)
        self._rng = random.Random(seed)
        self.events: list[FaultEvent] = []
        self.injected = 0
        self._write_index = 0
        self._read_index = 0

    # -- decisions ----------------------------------------------------------

    def disk_fault(self, operation: str, track: int) -> str:
        """Decide the fate of one disk operation ("read" or "write")."""
        if operation == "write":
            index = self._write_index
            self._write_index += 1
            if index in self.crash_at:
                return self._record("disk", operation, track, "crash")
            choices = (
                ("transient", self.spec.transient_rate),
                ("bit-rot", self.spec.bit_rot_rate),
                ("latency", self.spec.latency_rate),
            )
        else:
            index = self._read_index
            self._read_index += 1
            if index in self.crash_reads_at:
                return self._record("disk", operation, track, "crash")
            choices = (
                ("transient", self.spec.transient_rate),
                ("latency", self.spec.latency_rate),
            )
        return self._record("disk", operation, track, self._draw(choices))

    def link_fault(self, frame_length: int) -> str:
        """Decide the fate of one outgoing link frame (one roll)."""
        choices = (
            ("drop", self.spec.drop_rate),
            ("duplicate", self.spec.duplicate_rate),
            ("truncate", self.spec.truncate_rate),
            ("reorder", self.spec.reorder_rate),
            ("disconnect", self.spec.disconnect_rate),
            ("dribble", self.spec.dribble_rate),
            ("stall", self.spec.stall_rate),
        )
        return self._record("link", "send", frame_length, self._draw(choices))

    def cut_point(self, length: int) -> int:
        """Where a "disconnect" cuts *length* wire bytes (1 … length-1)."""
        return self._rng.randrange(1, length)

    def _draw(self, choices) -> str:
        roll = self._rng.random()
        if self.spec.max_faults is not None and self.injected >= self.spec.max_faults:
            return "none"
        edge = 0.0
        for fault, rate in choices:
            edge += rate
            if roll < edge:
                return fault
        return "none"

    def _record(self, channel: str, operation: str, target: int, fault: str) -> str:
        if fault != "none":
            self.injected += 1
        self.events.append(
            FaultEvent(len(self.events), channel, operation, target, fault)
        )
        return fault

    # -- reproducibility ----------------------------------------------------

    def schedule_bytes(self) -> bytes:
        """The full decision log, serialized deterministically.

        Two plans built from the same seed and spec, driven by the same
        operation sequence, produce byte-identical output — the
        determinism guarantee the soak harness asserts.
        """
        lines = [f"seed={self.seed}"]
        lines.extend(
            f"{e.index}:{e.channel}:{e.operation}:{e.target}:{e.fault}"
            for e in self.events
        )
        return "\n".join(lines).encode("ascii")

    def schedule_digest(self) -> str:
        """SHA-256 of :meth:`schedule_bytes` (compact comparison key)."""
        return sha256(self.schedule_bytes()).hexdigest()


class WindowKiller:
    """Counts one node's windows; kills it at exactly one.

    A kill sweep builds one as a *plan* — which node, at which of its
    windows: a flat *kill_at* index (the sweep's case) or a named
    *(window, nth)* pair (a test matrix's) — and hands it to what it
    kills.  A cluster gives every node its own copy (:meth:`for_node`)
    carrying the *kill* action of wherever that node runs: raise an
    exception that is not a ``GemStoneError`` (so no retry layer can
    swallow it), or SIGKILL the process.  A plan with no victim only
    counts.
    """

    def __init__(
        self,
        victim=None,
        kill_at: Optional[int] = None,
        kill_window: Optional[tuple[str, int]] = None,
        kill: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.victim = victim
        self.kill_at = kill_at
        self.kill_window = kill_window
        self.kill = kill
        #: the names of the windows reached, in order
        self.log: list[str] = []

    def for_node(self, node, kill) -> "WindowKiller":
        """This plan as *node* sees it: armed only if it is the victim."""
        if node != self.victim:
            return WindowKiller(node, kill=kill)
        return WindowKiller(node, self.kill_at, self.kill_window, kill)

    def window(self, name: str, victim) -> None:
        """One window of *victim*, the node this copy counts."""
        index, nth = len(self.log), self.log.count(name)
        self.log.append(name)
        if index == self.kill_at or (name, nth) == self.kill_window:
            self.kill(name, victim)
