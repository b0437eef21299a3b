"""The ``dr`` kind of :mod:`repro.check`: kill the primary everywhere, lose nothing.

The ZKAPAuthorizer recovery design states its acceptance as invariants —
100% of committed state recovered, unaffected by the exact timing of the
failure.  :class:`DrSweep` proves the same for this replication log by
*sweeping the timing*.  Its census is flat:

* **mid-replication** — for every frame the primary ships, a ``send``
  instant (the primary dies before the record reaches the wire: the
  record is lost with it) and an ``ack`` instant (the replica stored it,
  the primary dies before reading the acknowledgement: the replica is
  *ahead* of every client acknowledgement — allowed; behind — never);
* **mid-recovery** — then one ``("rebuild", "write")`` instant per track
  write of a clean log-only rebuild: the rebuild target dies there, is
  restarted, and the replay is re-run (idempotence is the claim).

Invariants checked at every point:

1. zero committed-transaction loss: every commit the client saw succeed
   is at or below the replica's acknowledged epoch;
2. zero torn log records: the store never accepted a record that fails
   validation (and replay never hits one);
3. byte-identical rebuild: the platter recovered from the log alone
   matches the dead primary's platter at the recovered epoch — and where
   that is the dead primary's own platter, it reopens cold to what the
   primary answered live (:func:`~repro.dr.verify.reopen_cold_diff`);
4. point-in-time: recovery to a non-latest epoch matches the platter
   clone captured when that epoch committed.
"""

from __future__ import annotations

from ..db import GemStone
from ..errors import DiskCrashed
from ..faults.plan import WindowKiller
from ..storage.disk import DiskGeometry, SimulatedDisk
from .recover import recover_disk, replay_onto
from .store import ReplicaLogStore
from .verify import diff_disks, reopen_cold_diff


class PrimaryDead(Exception):
    """The sweep's kill signal — deliberately *not* a GemStoneError, so
    no recovery or retry layer can swallow it: the primary is gone."""


def _primary_dies(name: str, victim) -> None:
    raise PrimaryDead(f"{victim} died at {name}")


class _CountedLink:
    """The primary's link end: a ``send`` window before each frame goes
    out, an ``ack`` window before its reply is read."""

    def __init__(self, inner, killer: WindowKiller) -> None:
        self.inner = inner
        self.killer = killer
        self.awaiting = False

    def send(self, frame: bytes) -> None:
        self.killer.window("send", "primary")
        self.inner.send(frame)
        self.awaiting = True

    def receive(self):
        if self.awaiting:
            self.awaiting = False
            self.killer.window("ack", "primary")
        return self.inner.receive()

    def __getattr__(self, name):
        return getattr(self.inner, name)


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


def _same_platter(fail, counts, counter, invariant, expected, actual) -> bool:
    """Byte-identical platters count under *counter*; others fail *invariant*."""
    problems = diff_disks(expected, actual)
    if problems:
        fail(invariant, "; ".join(problems))
    else:
        counts[counter] += 1
    return not problems


class _Primary:
    """One primary driven under *killer* until it dies (or never)."""

    def __init__(self, base_disk: SimulatedDisk, workload, killer) -> None:
        self.disk = base_disk.clone()
        self.database = GemStone.open(self.disk)
        self.store = ReplicaLogStore()
        self.acked_commits: list[int] = []  #: epochs the client saw succeed
        self.clones: dict[int, SimulatedDisk] = {}
        self.died = False
        try:
            self.database.enable_replication(
                link_wrapper=lambda inner: _CountedLink(inner, killer),
                replica_store=self.store,
            )
            self.clones[self.epoch] = self.disk.clone()
            session = self.database.login()
            for batch in workload:
                for statement in batch:
                    session.execute(statement)
                session.commit()
                self.acked_commits.append(self.epoch)
                self.clones[self.epoch] = self.disk.clone()
        except PrimaryDead:
            self.died = True

    @property
    def epoch(self) -> int:
        return self.database.store.commit_manager.current_epoch


class DrSweep:
    """The primary dies at each frame's send and ack, then the rebuild at each write."""

    OPTIONS = {"seed": 2026, "commits": 6, "writes_per_commit": 2}
    COUNTS = ("rebuilds_verified", "pit_recoveries", "torn_rejected")

    def __init__(self, seed: int, commits: int, writes_per_commit: int) -> None:
        self.workload = _workload(seed, commits, writes_per_commit)
        self.geometry = DiskGeometry(track_count=1024, track_size=512)
        self.base = SimulatedDisk(self.geometry)
        GemStone.create(disk=self.base)

    def census(self, fail) -> list[tuple]:
        """The uninterrupted run's windows, then a clean rebuild's writes."""
        killer = WindowKiller()
        clean = _Primary(self.base, self.workload, killer)
        problems = reopen_cold_diff(clean.database)
        if problems:
            fail("reopen-cold", "the clean primary: " + "; ".join(problems))
        self.store = clean.store
        self.final = clean.disk.clone()
        self.windows = len(killer.log)
        probe = SimulatedDisk(self.geometry)
        replay_onto(probe, clean.store.plan_recovery())
        return [("primary", name) for name in killer.log] + [
            ("rebuild", "write")
        ] * probe.stats.writes

    def run(self, point: int, fail, counts: dict) -> None:
        if point >= self.windows:
            return self._rebuild(point - self.windows, fail, counts)
        run = _Primary(
            self.base, self.workload,
            WindowKiller("primary", kill_at=point, kill=_primary_dies),
        )
        if not run.died:
            fail("kill-armed", "the run finished without reaching its kill window")
        store = run.store
        counts["torn_rejected"] += store.torn_rejected
        if store.torn_rejected:
            fail("zero-torn", f"{store.torn_rejected} torn records offered")
        last_acked_commit = max(run.acked_commits, default=0)
        if last_acked_commit > store.acked_epoch:
            fail("zero-loss", f"client-acked epoch {last_acked_commit} beyond "
                 f"replica epoch {store.acked_epoch}")
            return
        if store.acked_epoch == 0:
            return  # died during bootstrap: nothing was ever acked
        # byte-identical rebuild at the replica's acked epoch
        own_platter = store.acked_epoch == run.epoch
        reference = run.disk if own_platter else run.clones.get(store.acked_epoch)
        if reference is None:
            fail("byte-identical", f"no reference platter for epoch {store.acked_epoch}")
            return
        rebuilt = recover_disk(store)
        if _same_platter(fail, counts, "rebuilds_verified", "byte-identical",
                         reference, rebuilt) and own_platter:
            problems = reopen_cold_diff(run.database)
            if problems:
                fail("reopen-cold", "; ".join(problems))
        # point-in-time: the earliest client-acked, non-latest epoch
        pit = next((e for e in run.acked_commits if e < store.acked_epoch), None)
        if pit is not None:
            _same_platter(fail, counts, "pit_recoveries", f"point-in-time {pit}",
                          run.clones[pit], recover_disk(store, epoch=pit))

    def _rebuild(self, index: int, fail, counts: dict) -> None:
        """Kill the log-only rebuild at write *index*, restart, replay again."""
        target = SimulatedDisk(self.geometry)
        target.crash_after(index)
        try:
            recover_disk(self.store, disk=target)
        except DiskCrashed:
            target.restart()
            recover_disk(self.store, disk=target)  # idempotent second pass
            _same_platter(fail, counts, "rebuilds_verified", "idempotent-replay",
                          self.final, target)
        else:
            fail("kill-armed", "the rebuild finished past its crash point")
