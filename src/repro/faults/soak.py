"""Crash-recovery soak: prove every recovery path, not just one.

The Commit Manager's safe-write guarantee is all-or-nothing per commit;
the only honest way to test it is to crash at *every* write index of a
workload and check recovery each time.  :func:`run_crash_sweep` does
exactly that:

1. format a database and snapshot the platter;
2. replay a mixed OPAL workload once, uninterrupted, to learn the total
   number of track writes and the expected state after each commit;
3. for each crash index, clone the snapshot, arm the crash, replay until
   the disk dies, restart, run recovery (``GemStone.open`` drives
   ``CommitManager.recover``), and assert the root-epoch and
   object-table invariants: the recovered epoch is exactly the epoch of
   the last completed commit, and every workload key reads back the
   value that commit gave it — never a torn mixture;
4. compare that cold reopen, object by object, with a *live* witness
   database driven through the same number of commits and never
   restarted (:func:`~repro.dr.verify.logical_diff`): the recovered
   platter must hold every record exactly as a running server has it.

The workload makes ``World`` a record of several tracks in its first
commit and then commits a few bindings into it at a time, beside a
one-track neighbour, so the crash points fall inside all three ways a
record reaches the platter: associations appended to its last fragment,
a full tail sealed with the rest spilling onto a new fragment, and a
whole-record rewrite.

Everything is deterministic: the workload is fixed, crash points are
exact write indexes, and time is the disk's simulated cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db import GemStone
from ..dr.verify import logical_diff
from ..errors import StorageError
from ..storage.disk import DiskGeometry, SimulatedDisk


@dataclass(frozen=True)
class SoakStep:
    """The outcome of one crash point."""

    crash_index: int  #: write index the crash was armed on
    commits_survived: int  #: workload commits that completed before it
    recovered_epoch: int  #: root epoch adopted by recovery
    recovery_time_units: float  #: simulated disk time spent recovering


@dataclass
class SoakReport:
    """What an exhaustive crash sweep observed."""

    total_writes: int  #: track writes in the uninterrupted workload
    crash_points: int  #: crash indexes exercised
    recoveries: int  #: successful recoveries (must equal crash_points)
    torn_states: int  #: recoveries exposing a mixed commit (must be 0)
    steps: list[SoakStep] = field(default_factory=list)

    @property
    def max_recovery_time(self) -> float:
        return max((s.recovery_time_units for s in self.steps), default=0.0)

    @property
    def mean_recovery_time(self) -> float:
        if not self.steps:
            return 0.0
        return sum(s.recovery_time_units for s in self.steps) / len(self.steps)


#: ``World!padNN`` bindings of the first batch: ~11 bytes each on the platter
_PAD_KEYS = 64
#: length of the string each batch also binds: four such appends outgrow
#: any 512-byte tail, so even a five-commit smoke seals and spills once
_TRAIL = 120


def build_workload(commits: int = 12, writes_per_commit: int = 3) -> list[list[str]]:
    """A mixed OPAL workload: *commits* batches of key assignments.

    Every batch rewrites the same keys with a new generation marker, so
    a torn commit is visible as keys disagreeing on their generation.
    The first batch also pads ``World`` past one 512-byte track and
    creates ``World!note``; every batch binds a longer string into
    ``World`` and rebinds one element of that small neighbour, whose
    record is rewritten whole each time.
    """
    workload = [
        [f"World!k{key} := 'gen{batch}_{key}'" for key in range(writes_per_commit)]
        + [f"World!trail := '{'.' * _TRAIL}{batch}'", f"World!note!gen := {batch}"]
        for batch in range(commits)
    ]
    if workload:
        workload[0][:0] = [f"World!pad{i:02d} := {i}" for i in range(_PAD_KEYS)]
        workload[0].insert(_PAD_KEYS, "World!note := Object new")
    return workload


def _replay(db: GemStone, workload: list[list[str]]) -> int:
    """Run batches until the storage stack fails; return completed commits."""
    session = db.login()
    completed = 0
    try:
        for batch in workload:
            for statement in batch:
                session.execute(statement)
            session.commit()
            completed += 1
    except StorageError:
        pass  # the armed crash fired somewhere inside a commit
    return completed


def run_crash_sweep(
    commits: int = 12,
    writes_per_commit: int = 3,
    track_count: int = 1024,
    track_size: int = 512,
    stride: int = 1,
    crash_points: list[int] | None = None,
) -> SoakReport:
    """Crash at every write index of the workload; assert recovery each time.

    Raises ``AssertionError`` on the first violated invariant; returns
    the full :class:`SoakReport` when every crash point recovered.
    *stride* subsamples crash indexes for quick smoke runs;
    *crash_points* replaces the sweep with an explicit list of write
    indexes (out-of-range points are rejected) — the handle the CLI's
    ``--crash-points`` uses to re-run one interesting crash exactly.
    """
    workload = build_workload(commits, writes_per_commit)
    geometry = DiskGeometry(track_count=track_count, track_size=track_size)

    # 1+2: base image and the uninterrupted reference run
    base_disk = SimulatedDisk(geometry)
    GemStone.create(disk=base_disk)
    base_epoch = 1  # format's bootstrap commit
    reference = base_disk.clone()
    reference_db = GemStone.open(reference)
    writes_before = reference.stats.writes
    completed = _replay(reference_db, workload)
    assert completed == len(workload), "reference run must not fail"
    total_writes = reference.stats.writes - writes_before

    problems = logical_diff(reference_db, GemStone.open(reference))
    assert not problems, f"reference run does not reopen as it stands: {problems}"
    # the live witness of step 4: crash points ascend, so does what survives
    witness_db = GemStone.open(base_disk.clone())
    witnessed = 0

    report = SoakReport(
        total_writes=total_writes,
        crash_points=0,
        recoveries=0,
        torn_states=0,
    )

    if crash_points is None:
        sweep = range(0, total_writes, stride)
    else:
        bad = [p for p in crash_points if not 0 <= p < total_writes]
        if bad:
            raise ValueError(
                f"crash points {bad} outside the workload's "
                f"{total_writes} writes"
            )
        sweep = sorted(set(crash_points))

    # 3: the sweep — crash index i kills the (i+1)-th workload write
    for crash_index in sweep:
        disk = base_disk.clone()
        db = GemStone.open(disk)
        disk.crash_after(crash_index)
        completed = _replay(db, workload)
        assert completed < len(workload), (
            f"crash index {crash_index} inside the workload never fired"
        )
        disk.restart()

        recovery_started = disk.stats.time_units
        recovered = GemStone.open(disk)  # CommitManager.recover + reload
        recovery_time = disk.stats.time_units - recovery_started

        expected_epoch = base_epoch + completed
        actual_epoch = recovered.store.commit_manager.current_epoch
        assert actual_epoch == expected_epoch, (
            f"crash index {crash_index}: recovered epoch {actual_epoch}, "
            f"expected {expected_epoch} ({completed} commits survived)"
        )
        session = recovered.login()
        generations = set()
        for key in range(writes_per_commit):
            value = session.execute(f"World!k{key}")
            expected = f"gen{completed - 1}_{key}" if completed else None
            if value != expected:
                report.torn_states += 1
            if isinstance(value, str):
                generations.add(value.split("_")[0])
        assert len(generations) <= 1, (
            f"crash index {crash_index}: torn commit visible, "
            f"generations {sorted(generations)}"
        )
        assert report.torn_states == 0, (
            f"crash index {crash_index}: recovered state is not the last "
            f"completed commit's state"
        )
        witnessed += _replay(witness_db, workload[witnessed:completed])
        problems = logical_diff(witness_db, recovered)
        assert not problems, (
            f"crash index {crash_index}: the reopened platter differs from "
            f"a live store after {completed} commits: {problems}"
        )

        report.crash_points += 1
        report.recoveries += 1
        report.steps.append(
            SoakStep(
                crash_index=crash_index,
                commits_survived=completed,
                recovered_epoch=actual_epoch,
                recovery_time_units=recovery_time,
            )
        )
    return report
