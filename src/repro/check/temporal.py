"""The temporal oracle: history replay against a brute-force shadow.

A random transaction history runs through a real :class:`~repro.db.GemStone`
session — creates, element binds, commits — while a shadow dict records
``(commit time, value)`` pairs.  Afterwards the oracle cross-checks, for
every object × field × probe time:

* the ``@T``-pinned path read (``name@T!field@T`` from the world);
* the same read under a :class:`~repro.core.timedial.TimeDial` pin
  (``dial.at(T)`` with an unpinned path) — §5.4's equivalence claim;
* the raw association table (:meth:`AssociationTable.value_at`);
* after every commit, that ``SafeTime`` equals the commit time just
  assigned, and that a deliberately skewed SafeTime provider is clamped
  to the commit-clock ceiling (counting the clamp);
* once the history is in, that a cold reopen of the database's disk
  reads every object exactly as the running store has it
  (:func:`~repro.dr.verify.reopen_cold_diff`).

Probe times include every commit time, the instants just before and
after each, and a time before the history began — the boundary cases
interval stamps get wrong first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.timedial import TimeDial
from ..dr.verify import reopen_cold_diff
from .report import reproducer_command

#: resolve() default distinguishing "absent at T" from any real value
ABSENT = object()


@dataclass
class TemporalReport:
    """Aggregate outcome of one or more temporal histories."""

    histories: int = 0
    commits: int = 0
    reads: int = 0
    clamps: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def merge(self, other: "TemporalReport") -> None:
        self.histories += other.histories
        self.commits += other.commits
        self.reads += other.reads
        self.clamps += other.clamps
        self.problems.extend(other.problems)


def run_temporal_case(
    database,
    seed: int,
    case: int,
    *,
    commits: int = 6,
    registry=None,
) -> TemporalReport:
    """Replay one random history on *database* and cross-check it.

    Histories are namespaced by ``(seed, case)`` so many cases can share
    one database — world element names never collide.
    """
    import random

    rng = random.Random(seed * 7_368_787 + case)
    prefix = f"h{seed}_{case}"
    report = TemporalReport(histories=1)
    registry = registry if registry is not None else getattr(
        database.obs, "registry", None
    )

    session = database.login()
    try:
        shadow = _replay(session, rng, prefix, commits, report)
        _check_reads(session, database, shadow, prefix, report)
        _check_safe_time_clamp(database, report, registry)
    finally:
        session.close()
    report.problems.extend(reopen_cold_diff(database))

    if registry is not None:
        registry.inc("check.temporal.histories")
        registry.inc("check.temporal.reads", report.reads)
        if report.problems:
            registry.inc("check.temporal.mismatches", len(report.problems))
    if report.problems:
        report.problems.append(
            "reproduce with: "
            + reproducer_command(seed, case, oracle="temporal")
        )
    return report


def _replay(session, rng, prefix, commits, report) -> dict:
    """Run the history; returns {obj: {"_created": t, field: [(t, v)...]}}."""
    shadow: dict[str, dict[str, Any]] = {}
    fields = ("f0", "f1", "f2")
    objects: list[str] = []
    for commit_index in range(commits):
        staged: list[tuple[str, str, int]] = []
        if commit_index == 0 or (len(objects) < 4 and rng.random() < 0.4):
            name = f"{prefix}_o{len(objects)}"
            obj = session.new("Object")
            session.assign(name, obj)
            objects.append(name)
            shadow[name] = {"_created": None}
        for name in objects:
            if name not in shadow:
                continue
            for fieldname in fields:
                if rng.random() < 0.45:
                    value = rng.randrange(1000)
                    session.assign(f"{name}!{fieldname}", value)
                    staged.append((name, fieldname, value))
        tx_time = session.commit()
        report.commits += 1
        for name in objects:
            if shadow[name]["_created"] is None:
                shadow[name]["_created"] = tx_time
        for name, fieldname, value in staged:
            shadow[name].setdefault(fieldname, []).append((tx_time, value))
        # §5.4: the state just committed is immediately safe — no other
        # running transaction can change it
        safe = session.safe_time()
        if safe != session.database.transaction_manager.clock.latest:
            report.problems.append(
                f"safe_time {safe} != commit clock after commit {tx_time}"
            )
        dialed = session.time_dial.set_safe()
        if dialed != safe:
            report.problems.append(
                f"set_safe dialed {dialed} but safe_time is {safe}"
            )
        session.time_dial.reset()
    return shadow


def _shadow_value(shadow, name, fieldname, time) -> Any:
    """What the brute-force model says ``name!field@T`` should read."""
    record = shadow.get(name)
    if record is None or record["_created"] is None:
        return ABSENT
    if time is not None and time < record["_created"]:
        return ABSENT  # the world did not know this name yet
    history = record.get(fieldname, [])
    result = ABSENT
    for t, value in history:
        if time is not None and t > time:
            break
        result = value
    return result


def _probe_times(shadow) -> list[Optional[int]]:
    commit_times = sorted({
        t
        for record in shadow.values()
        for history in record.values()
        if isinstance(history, list)
        for t, _v in history
    } | {
        record["_created"]
        for record in shadow.values()
        if record["_created"] is not None
    })
    times: set[Optional[int]] = {None}
    for t in commit_times:
        times.update((t - 1, t, t + 1))
    if commit_times:
        times.add(commit_times[0] - 10)
    return sorted((t for t in times if t is not None)) + [None]


def _check_reads(session, database, shadow, prefix, report) -> None:
    for name, record in shadow.items():
        fields = [k for k in record if k != "_created"]
        for fieldname in fields + ["f0"]:
            for time in _probe_times(shadow):
                expected = _shadow_value(shadow, name, fieldname, time)
                _check_one_read(
                    session, database, name, fieldname, time, expected, report
                )


def _check_one_read(
    session, database, name, fieldname, time, expected, report
) -> None:
    # 1. explicit @T pins on every path component
    if time is None:
        pinned_path = f"{name}!{fieldname}"
    else:
        pinned_path = f"{name}@{time}!{fieldname}@{time}"
    actual = session.resolve(pinned_path, default=ABSENT)
    report.reads += 1
    if actual != expected:
        report.problems.append(
            f"@T read {pinned_path!r}: got {actual!r}, shadow says {expected!r}"
        )
    # 2. the time-dial equivalence: dialing to T == appending @T everywhere
    with session.time_dial.at(time):
        dialed = session.resolve(f"{name}!{fieldname}", default=ABSENT)
    report.reads += 1
    if dialed != expected:
        report.problems.append(
            f"dial@{time} read {name}!{fieldname}: got {dialed!r}, "
            f"shadow says {expected!r}"
        )
    # 3. the association table itself (repro.core.history)
    if expected is not ABSENT:
        world = session.world
        obj_ref = world.value_at(name, None)
        obj = session.database.store.deref(obj_ref)
        table = obj.elements.get(fieldname)
        raw = table.value_at(time) if table is not None else None
        report.reads += 1
        if raw != expected:
            report.problems.append(
                f"association table {name}.{fieldname}@{time}: got {raw!r}, "
                f"shadow says {expected!r}"
            )


def _check_safe_time_clamp(database, report, registry) -> None:
    """A SafeTime provider ahead of the commit clock must be clamped."""
    ceiling = database.transaction_manager.clock.latest
    skewed = TimeDial(
        safe_time_provider=lambda: ceiling + 7,
        commit_time_provider=lambda: ceiling,
    )
    if registry is not None:
        skewed.on_clamp = lambda: registry.inc("check.temporal.clamps")
    dialed = skewed.set_safe()
    if dialed != ceiling:
        report.problems.append(
            f"skewed SafeTime {ceiling + 7} not clamped to ceiling {ceiling} "
            f"(got {dialed})"
        )
    if skewed.clamps != 1:
        report.problems.append(
            f"clamp counter is {skewed.clamps} after one clamped set_safe"
        )
    report.clamps += skewed.clamps


def run_temporal_range(
    database, seed: int, cases: int, *, commits: int = 6, registry=None
) -> TemporalReport:
    """Replay ``cases`` histories (sharing *database*); aggregate."""
    total = TemporalReport()
    for case in range(cases):
        total.merge(
            run_temporal_case(
                database, seed, case, commits=commits, registry=registry
            )
        )
    return total
