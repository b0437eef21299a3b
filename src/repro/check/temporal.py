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

from typing import Any, Optional

from ..core.timedial import TimeDial
from ..dr.verify import reopen_cold_diff

#: resolve() default distinguishing "absent at T" from any real value
ABSENT = object()
#: ``World!padNN`` bindings the oracles' database starts with
_PAD_KEYS = 64


def oracle_database():
    """A fresh database for the temporal and schedule oracles.

    512-byte tracks and a padded ``World``: its record spans tracks from
    the first case on, so the oracles' one- and two-binding commits are
    appended to its last fragment (and now and then spill a new one),
    while the small objects they create beside it are written whole.
    """
    from ..db import GemStone

    database = GemStone.create(track_count=2048, track_size=512)
    with database.login() as loader:
        for index in range(_PAD_KEYS):
            loader.assign(f"pad{index:02d}", index)
        loader.commit()
    return database


class Temporal:
    """Every @T read, TimeDial pin and association-table read agrees with the shadow."""

    OPTIONS = {"seed": 2026}
    COUNTS = ("histories", "commits", "reads", "clamps")
    PREFIX, FAILED = "temporal", "mismatches"
    #: commits per history
    COMMITS = 6

    def __init__(self, seed: int, database=None) -> None:
        self.seed = seed
        self.database = database if database is not None else oracle_database()
        self.registry = getattr(self.database.obs, "registry", None)

    def run(self, case: int, fail, counts: dict) -> None:
        """Replay one random history on the database and cross-check it.

        Histories are namespaced by ``(seed, case)`` so many cases can
        share one database — world element names never collide.
        """
        import random

        rng = random.Random(self.seed * 7_368_787 + case)
        prefix = f"h{self.seed}_{case}"
        counts["histories"] += 1
        session = self.database.login()
        try:
            shadow = _replay(session, rng, prefix, self.COMMITS, fail, counts)
            _check_reads(session, shadow, fail, counts)
            _check_safe_time_clamp(self.database, fail, counts)
        finally:
            session.close()
        for problem in reopen_cold_diff(self.database):
            fail(problem)


def _replay(session, rng, prefix, commits, fail, counts) -> dict:
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
        counts["commits"] += 1
        for name in objects:
            if shadow[name]["_created"] is None:
                shadow[name]["_created"] = tx_time
        for name, fieldname, value in staged:
            shadow[name].setdefault(fieldname, []).append((tx_time, value))
        # §5.4: the state just committed is immediately safe — no other
        # running transaction can change it
        safe = session.safe_time()
        if safe != session.database.transaction_manager.clock.latest:
            fail(f"safe_time {safe} != commit clock after commit {tx_time}")
        dialed = session.time_dial.set_safe()
        if dialed != safe:
            fail(f"set_safe dialed {dialed} but safe_time is {safe}")
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


def _check_reads(session, shadow, fail, counts) -> None:
    for name, record in shadow.items():
        fields = [k for k in record if k != "_created"]
        for fieldname in fields + ["f0"]:
            for time in _probe_times(shadow):
                expected = _shadow_value(shadow, name, fieldname, time)
                _check_one_read(
                    session, name, fieldname, time, expected, fail, counts
                )


def _check_one_read(
    session, name, fieldname, time, expected, fail, counts
) -> None:
    # 1. explicit @T pins on every path component
    if time is None:
        pinned_path = f"{name}!{fieldname}"
    else:
        pinned_path = f"{name}@{time}!{fieldname}@{time}"
    actual = session.resolve(pinned_path, default=ABSENT)
    counts["reads"] += 1
    if actual != expected:
        fail(
            f"@T read {pinned_path!r}: got {actual!r}, shadow says {expected!r}"
        )
    # 2. the time-dial equivalence: dialing to T == appending @T everywhere
    with session.time_dial.at(time):
        dialed = session.resolve(f"{name}!{fieldname}", default=ABSENT)
    counts["reads"] += 1
    if dialed != expected:
        fail(
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
        counts["reads"] += 1
        if raw != expected:
            fail(
                f"association table {name}.{fieldname}@{time}: got {raw!r}, "
                f"shadow says {expected!r}"
            )


def _check_safe_time_clamp(database, fail, counts) -> None:
    """A SafeTime provider ahead of the commit clock must be clamped."""
    ceiling = database.transaction_manager.clock.latest
    skewed = TimeDial(
        safe_time_provider=lambda: ceiling + 7,
        commit_time_provider=lambda: ceiling,
    )
    dialed = skewed.set_safe()
    if dialed != ceiling:
        fail(
            f"skewed SafeTime {ceiling + 7} not clamped to ceiling {ceiling} "
            f"(got {dialed})"
        )
    if skewed.clamps != 1:
        fail(f"clamp counter is {skewed.clamps} after one clamped set_safe")
    counts["clamps"] += skewed.clamps
