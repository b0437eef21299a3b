"""The disaster sweep: kill the primary everywhere, lose nothing.

The ZKAPAuthorizer recovery design states its acceptance as invariants —
100% of committed state recovered, unaffected by the exact timing of the
failure.  :func:`run_dr_soak` proves the same for this replication log
by *sweeping the timing*:

* **mid-replication** — the primary dies at every outgoing frame index,
  in both windows: before the record reaches the wire (``send``: the
  record is lost with the primary) and after the replica stored it but
  before the acknowledgement arrives (``recv``: the replica is *ahead*
  of every client acknowledgement — allowed; behind — never);
* **mid-recovery** — the rebuild target dies at every write index, is
  restarted, and the replay is re-run (idempotence is the claim).

Invariants checked at every point:

1. zero committed-transaction loss: every commit the client saw succeed
   is at or below the replica's acknowledged epoch;
2. zero torn log records: the store never accepted a record that fails
   validation (and replay never hits one);
3. byte-identical rebuild: the platter recovered from the log alone
   matches the dead primary's platter at the recovered epoch;
4. point-in-time: recovery to a non-latest epoch matches the platter
   clone captured when that epoch committed.

Every failure carries a copy-pasteable reproducer
(``python -m repro.dr --seed N --kill K --mode M``), following the
``repro.check`` pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..db import GemStone
from ..errors import DiskCrashed
from ..storage.disk import DiskGeometry, SimulatedDisk
from .recover import recover_disk, replay_onto
from .store import ReplicaLogStore
from .verify import byte_identical, diff_disks


class PrimaryDead(Exception):
    """The sweep's kill signal — deliberately *not* a GemStoneError, so
    no recovery or retry layer can swallow it: the primary is gone."""


class DyingLink:
    """A link end that kills the primary at an exact frame index.

    ``mode="send"`` raises before the fatal frame touches the wire (the
    record dies with the primary); ``mode="recv"`` lets the frame
    through — the replica stores it and acks — then raises on the next
    receive, so the primary never sees the acknowledgement.
    """

    def __init__(self, inner, kill_at: Optional[int] = None,
                 mode: str = "send") -> None:
        self.inner = inner
        self.kill_at = kill_at
        self.mode = mode
        self.sent = 0

    def send(self, frame: bytes) -> None:
        if self.kill_at is not None and self.sent == self.kill_at:
            if self.mode == "send":
                raise PrimaryDead(f"primary died sending frame {self.sent}")
            self.sent += 1
            self.inner.send(frame)
            return
        self.sent += 1
        self.inner.send(frame)

    def receive(self):
        if (
            self.kill_at is not None
            and self.mode == "recv"
            and self.sent > self.kill_at
        ):
            raise PrimaryDead(
                f"primary died awaiting the ack of frame {self.kill_at}"
            )
        return self.inner.receive()

    def close(self) -> None:
        self.inner.close()

    @property
    def peer_closed(self) -> bool:
        return self.inner.peer_closed


@dataclass
class DrFailure:
    """One violated invariant, with its reproducer."""

    phase: str  #: "replication" or "recovery"
    kill_point: int
    mode: str
    invariant: str
    detail: str
    reproducer: str

    def describe(self) -> str:
        return (
            f"[{self.phase}] kill={self.kill_point} mode={self.mode}: "
            f"{self.invariant} — {self.detail}\n  reproduce: {self.reproducer}"
        )


@dataclass
class DrSoakReport:
    """What the disaster sweep observed."""

    seed: int
    commits: int
    total_frames: int  #: outgoing frames in the uninterrupted run
    total_recovery_writes: int  #: track writes in a full clean rebuild
    replication_points: int = 0
    recovery_points: int = 0
    rebuilds_verified: int = 0
    pit_recoveries: int = 0  #: non-latest point-in-time rebuilds checked
    torn_rejected: int = 0  #: torn records the stores refused (never kept)
    failures: list[DrFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> dict:
        """JSON-ready summary for benchmarks and CI."""
        return {
            "seed": self.seed,
            "commits": self.commits,
            "total_frames": self.total_frames,
            "total_recovery_writes": self.total_recovery_writes,
            "replication_points": self.replication_points,
            "recovery_points": self.recovery_points,
            "rebuilds_verified": self.rebuilds_verified,
            "pit_recoveries": self.pit_recoveries,
            "torn_rejected": self.torn_rejected,
            "failures": len(self.failures),
            "ok": self.ok,
        }


def _workload(seed: int, commits: int, writes_per_commit: int) -> list[list[str]]:
    """Batches of key rewrites; the first also pads ``World`` past one
    512-byte track, so the later commits ship *appended* record tails —
    the log must carry those byte for byte like any other track."""
    workload = [
        [
            f"World!k{key} := 's{seed}_g{batch}_{key}'"
            for key in range(writes_per_commit)
        ]
        for batch in range(commits)
    ]
    if workload:
        workload[0] += [f"World!pad{i:02d} := {i}" for i in range(64)]
    return workload


def _reproducer(seed: int, kill: int, mode: str) -> str:
    return f"python -m repro.dr --seed {seed} --kill {kill} --mode {mode}"


class _SweepRun:
    """One primary driven until the kill point fires (or never)."""

    def __init__(self, base_disk: SimulatedDisk, workload, kill_at, mode):
        self.disk = base_disk.clone()
        self.database = GemStone.open(self.disk)
        self.dying: Optional[DyingLink] = None
        self.store = ReplicaLogStore()
        self.acked_commits: list[int] = []  #: epochs the client saw succeed
        self.clones: dict[int, SimulatedDisk] = {}
        self.died = False

        def wrapper(inner):
            self.dying = DyingLink(inner, kill_at=kill_at, mode=mode)
            return self.dying

        try:
            self.database.enable_replication(
                link_wrapper=wrapper, replica_store=self.store
            )
        except PrimaryDead:
            self.died = True
            return
        self.clones[self.database.store.commit_manager.current_epoch] = (
            self.disk.clone()
        )
        session = self.database.login()
        for batch in workload:
            try:
                for statement in batch:
                    session.execute(statement)
                session.commit()
            except PrimaryDead:
                self.died = True
                return
            epoch = self.database.store.commit_manager.current_epoch
            self.acked_commits.append(epoch)
            self.clones[epoch] = self.disk.clone()


def run_dr_soak(
    seed: int = 2026,
    commits: int = 6,
    writes_per_commit: int = 2,
    track_count: int = 1024,
    track_size: int = 512,
    stride: int = 1,
    recovery_stride: int = 1,
    kill_points: Optional[list[int]] = None,
    modes: tuple[str, ...] = ("send", "recv"),
) -> DrSoakReport:
    """Sweep every kill point; verify the four invariants at each.

    *stride* subsamples frame kill points, *recovery_stride* subsamples
    rebuild write indexes (smoke runs); *kill_points* replaces the sweep
    with explicit frame indexes — the CLI's ``--kill`` handle.
    """
    workload = _workload(seed, commits, writes_per_commit)
    geometry = DiskGeometry(track_count=track_count, track_size=track_size)

    # the uninterrupted instrumented run: frame totals + the full log
    base_disk = SimulatedDisk(geometry)
    GemStone.create(disk=base_disk)
    clean = _SweepRun(base_disk, workload, kill_at=None, mode="send")
    assert not clean.died, "the clean run must not die"
    total_frames = clean.dying.sent
    final_reference = clean.disk.clone()

    # a full clean rebuild, instrumented for the recovery-crash sweep
    rebuild_plan = clean.store.plan_recovery()
    probe = SimulatedDisk(geometry)
    replay_onto(probe, rebuild_plan)
    total_recovery_writes = probe.stats.writes

    report = DrSoakReport(
        seed=seed,
        commits=commits,
        total_frames=total_frames,
        total_recovery_writes=total_recovery_writes,
    )

    if kill_points is None:
        sweep = list(range(0, total_frames, stride))
    else:
        bad = [k for k in kill_points if not 0 <= k < total_frames]
        if bad:
            raise ValueError(
                f"kill points {bad} outside the run's {total_frames} frames"
            )
        sweep = sorted(set(kill_points))

    # -- mid-replication: kill the primary at every frame ------------------
    for kill in sweep:
        for mode in modes:
            report.replication_points += 1
            run = _SweepRun(base_disk, workload, kill_at=kill, mode=mode)
            store = run.store
            report.torn_rejected += store.torn_rejected
            fail = lambda invariant, detail: report.failures.append(  # noqa: E731
                DrFailure(
                    "replication", kill, mode, invariant, detail,
                    _reproducer(seed, kill, mode),
                )
            )
            if store.torn_rejected:
                fail("zero-torn", f"{store.torn_rejected} torn records offered")
            last_acked_commit = max(run.acked_commits, default=0)
            if last_acked_commit > store.acked_epoch:
                fail(
                    "zero-loss",
                    f"client-acked epoch {last_acked_commit} beyond "
                    f"replica epoch {store.acked_epoch}",
                )
                continue
            if store.acked_epoch == 0:
                continue  # died during bootstrap: nothing was ever acked
            # byte-identical rebuild at the replica's acked epoch
            local = run.database.store.commit_manager.current_epoch
            if store.acked_epoch == local:
                reference = run.disk  # the dead primary's platter, as-is
            else:
                reference = run.clones.get(store.acked_epoch)
            if reference is None:
                fail(
                    "byte-identical",
                    f"no reference platter for epoch {store.acked_epoch}",
                )
                continue
            try:
                rebuilt = recover_disk(store)
            except Exception as error:  # noqa: BLE001 — report, keep sweeping
                fail("byte-identical", f"rebuild raised {error!r}")
                continue
            if not byte_identical(reference, rebuilt):
                fail(
                    "byte-identical",
                    "; ".join(diff_disks(reference, rebuilt)),
                )
            else:
                report.rebuilds_verified += 1
            # point-in-time: the earliest client-acked, non-latest epoch
            pit_candidates = [
                e for e in run.acked_commits if e < store.acked_epoch
            ]
            if pit_candidates:
                pit = pit_candidates[0]
                pit_rebuilt = recover_disk(store, epoch=pit)
                if not byte_identical(run.clones[pit], pit_rebuilt):
                    fail(
                        "point-in-time",
                        f"epoch {pit}: "
                        + "; ".join(diff_disks(run.clones[pit], pit_rebuilt)),
                    )
                else:
                    report.pit_recoveries += 1

    # -- mid-recovery: kill the rebuild at every write ---------------------
    full_store = clean.store
    for crash_index in range(0, total_recovery_writes, recovery_stride):
        report.recovery_points += 1
        target = SimulatedDisk(geometry)
        target.crash_after(crash_index)
        died = False
        try:
            recover_disk(full_store, disk=target)
        except DiskCrashed:
            died = True
        if not died:
            report.failures.append(
                DrFailure(
                    "recovery", crash_index, "write",
                    "crash-armed", "rebuild finished past its crash point",
                    _reproducer(seed, crash_index, "recovery"),
                )
            )
            continue
        target.restart()
        recover_disk(full_store, disk=target)  # idempotent second pass
        if not byte_identical(final_reference, target):
            report.failures.append(
                DrFailure(
                    "recovery", crash_index, "write", "idempotent-replay",
                    "; ".join(diff_disks(final_reference, target)),
                    _reproducer(seed, crash_index, "recovery"),
                )
            )
        else:
            report.rebuilds_verified += 1
    return report
