"""The ``crash`` kind of :mod:`repro.check`: the disk dies before every write.

The Commit Manager's safe-write guarantee is all-or-nothing per commit;
the only honest way to test it is to crash at *every* write index of a
workload and check recovery each time.  :class:`CrashSweep` does exactly
that:

1. format a database and snapshot the platter;
2. replay a mixed OPAL workload once, uninterrupted: its census is one
   ``("disk", "commit N")`` instant per track write, N the commit the
   write belongs to;
3. for each kill point, clone the snapshot, arm the crash, replay until
   the disk dies, restart and run recovery (``GemStone.open`` drives
   ``CommitManager.recover``).  The recovered epoch must be exactly the
   epoch of the last completed commit, and every workload key must read
   back the value that commit gave it — never a torn mixture;
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

from ..db import GemStone
from ..dr.verify import logical_diff
from ..errors import StorageError
from ..storage.disk import DiskGeometry, SimulatedDisk


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


class CrashSweep:
    """The disk dies before each track write; recovery lands the last commit."""

    OPTIONS = {"commits": 12, "writes_per_commit": 3}
    COUNTS = ("recoveries",)

    def __init__(self, commits: int, writes_per_commit: int) -> None:
        self.workload = build_workload(commits, writes_per_commit)
        self.keys = writes_per_commit
        self.base = SimulatedDisk(DiskGeometry(track_count=1024, track_size=512))
        GemStone.create(disk=self.base)  # epoch 1: format's bootstrap commit

    def census(self, fail) -> list[tuple]:
        """The uninterrupted run: one ``("disk", "commit N")`` per write."""
        reference = self.base.clone()
        database = GemStone.open(reference)
        census: list[tuple] = []
        for number, batch in enumerate(self.workload):
            before = reference.stats.writes
            if not _replay(database, [batch]):
                fail("clean-run", f"commit {number} failed with no crash armed")
                return []
            census += [("disk", f"commit {number}")] * (reference.stats.writes - before)
        problems = logical_diff(database, GemStone.open(reference))
        if problems:
            fail("reopen-cold", f"the clean run does not reopen as it stands: {problems}")
        # the live witness of step 4: kill points ascend, so does what survives
        self.witness = GemStone.open(self.base.clone())
        self.witnessed = 0
        return census

    def run(self, point: int, fail, counts: dict):
        """Crash before write *point*; recover; check the last commit's state.

        Returns ``(commits survived, recovered epoch, recovery time)``,
        the time in the disk's simulated units.
        """
        disk = self.base.clone()
        db = GemStone.open(disk)
        disk.crash_after(point)  # the (point+1)-th workload write dies
        completed = _replay(db, self.workload)
        if completed == len(self.workload):
            fail("kill-armed", "the workload finished without reaching its crash")
            return None
        disk.restart()
        started = disk.stats.time_units
        recovered = GemStone.open(disk)  # CommitManager.recover + reload
        recovery_time = disk.stats.time_units - started
        counts["recoveries"] += 1

        epoch = recovered.store.commit_manager.current_epoch
        if epoch != 1 + completed:
            fail("recovered-epoch", f"recovered epoch {epoch}, expected "
                 f"{1 + completed} ({completed} commits survived)")
        session = recovered.login()
        values = [session.execute(f"World!k{key}") for key in range(self.keys)]
        expected = [
            f"gen{completed - 1}_{key}" if completed else None
            for key in range(self.keys)
        ]
        generations = {v.split("_")[0] for v in values if isinstance(v, str)}
        if len(generations) > 1:
            fail("no-torn-commit", f"generations {sorted(generations)} visible together")
        elif values != expected:
            fail("last-commit-state", f"keys read {values}, the last completed "
                 f"commit left {expected}")
        self.witnessed += _replay(self.witness, self.workload[self.witnessed:completed])
        problems = logical_diff(self.witness, recovered)
        if problems:
            fail("reopen-cold", f"the reopened platter differs from a live store "
                 f"after {completed} commits: {problems}")
        return completed, epoch, recovery_time
