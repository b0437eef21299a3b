"""Deterministic interleaving exploration for OCC commits.

A *virtual scheduler* drives several sessions of one database through
read / write / increment programs over shared counters — no real
threads: the interleaving IS the test input, chosen by a seeded RNG (or
enumerated exhaustively for two sessions), so every run of a seed
explores the identical schedule and the event log's digest proves it.

Checked invariants, mirroring section 6's optimistic scheme:

* **read your writes, snapshot after first write** — a session's read
  returns its own staged value; before any staged write it tracks the
  live committed state, after the first write it sees the copy-on-write
  twin taken at that moment;
* **aborted sessions leave no partial state** — after every conflict
  abort, the committed counters equal the model of committed effects
  only;
* **committed histories are serializable** — replaying the committed
  bodies *serially, in commit order* over a fresh model reproduces the
  final committed state exactly.  A validation bug that let a stale
  read-modify-write commit would break this equality;
* **the platter holds what the live store holds** — when the sample is
  done, a cold reopen of the database's disk must read every object
  exactly as the running store has it
  (:func:`~repro.dr.verify.reopen_cold_diff`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
from typing import Any, Optional

from ..dr.verify import reopen_cold_diff
from ..errors import OverloadedError, TransactionConflict
from .report import reproducer_command

_MAX_ATTEMPTS = 8


@dataclass
class ScheduleReport:
    """Aggregate outcome of schedule exploration."""

    samples: int = 0
    steps: int = 0
    commits: int = 0
    aborts: int = 0
    overloads: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems

    def merge(self, other: "ScheduleReport") -> None:
        self.samples += other.samples
        self.steps += other.steps
        self.commits += other.commits
        self.aborts += other.aborts
        self.overloads += other.overloads
        self.problems.extend(other.problems)
        self.digest = sha256(
            (self.digest + other.digest).encode()
        ).hexdigest()


class _VirtualSession:
    """One session's program plus its in-flight attempt state."""

    def __init__(self, index: int, session, program: list[tuple]) -> None:
        self.index = index
        self.session = session
        self.program = program
        self.position = 0
        self.attempts = 0
        #: committed-state snapshot taken at this attempt's first write
        self.twin_snapshot: Optional[dict[int, int]] = None
        self.staged: dict[int, int] = {}
        self.done = False

    def reset_attempt(self) -> None:
        self.position = 0
        self.twin_snapshot = None
        self.staged = {}


def _counter_path(prefix: str, index: int) -> str:
    return f"{prefix}_x{index}"


def _read(vs: _VirtualSession, prefix: str, counter: int) -> Any:
    return vs.session.resolve(_counter_path(prefix, counter))


def _write(
    vs: _VirtualSession, prefix: str, counter: int, value: int,
    committed: dict[int, int],
) -> None:
    if vs.twin_snapshot is None:
        # first write copies the shared object into the workspace: reads
        # from now on see this snapshot plus the session's own writes
        vs.twin_snapshot = dict(committed)
    vs.session.assign(_counter_path(prefix, counter), value)
    vs.staged[counter] = value


def _expected_read(
    vs: _VirtualSession, counter: int, committed: dict[int, int]
) -> int:
    if counter in vs.staged:
        return vs.staged[counter]
    if vs.twin_snapshot is not None:
        return vs.twin_snapshot[counter]
    return committed[counter]


def run_schedule_case(
    database,
    seed: int,
    case: int,
    *,
    n_sessions: int = 3,
    ops_per_session: int = 4,
    n_counters: int = 3,
    schedule: Optional[list[int]] = None,
    registry=None,
) -> ScheduleReport:
    """Run one interleaving sample on *database*; check every invariant.

    ``schedule`` fixes the interleaving explicitly (used by the
    exhaustive two-session mode); by default it is drawn from the seed.
    """
    import random

    registry = registry if registry is not None else getattr(
        database.obs, "registry", None
    )
    rng = random.Random(seed * 9_999_991 + case)
    prefix = f"s{seed}_{case}"
    report = ScheduleReport(samples=1)
    events: list[tuple] = []

    setup = database.login()
    try:
        for j in range(n_counters):
            setup.assign(_counter_path(prefix, j), 0)
        setup.commit()
    finally:
        setup.close()
    committed = {j: 0 for j in range(n_counters)}

    programs = [
        _generate_program(rng, ops_per_session, n_counters)
        for _ in range(n_sessions)
    ]
    sessions = [
        _VirtualSession(i, database.login(), program)
        for i, program in enumerate(programs)
    ]
    commit_log: list[tuple[int, list[tuple]]] = []  # (session idx, ops run)

    try:
        _drive(
            database, sessions, committed, commit_log, events,
            prefix, rng, report, schedule,
        )
        _check_serializability(
            database, sessions, committed, commit_log, events,
            prefix, programs, report,
        )
    finally:
        for vs in sessions:
            vs.session.close()
    report.problems.extend(reopen_cold_diff(database))

    report.digest = sha256(repr(events).encode()).hexdigest()
    if registry is not None:
        registry.inc("check.schedule.samples")
        registry.inc("check.schedule.commits", report.commits)
        registry.inc("check.schedule.aborts", report.aborts)
        if report.problems:
            registry.inc("check.schedule.violations", len(report.problems))
    if report.problems:
        report.problems.append(
            "reproduce with: "
            + reproducer_command(seed, case, oracle="schedule")
        )
    return report


def _generate_program(rng, ops: int, n_counters: int) -> list[tuple]:
    program: list[tuple] = []
    for _ in range(ops):
        counter = rng.randrange(n_counters)
        kind = rng.choice(("read", "write", "incr", "incr"))
        if kind == "read":
            program.append(("read", counter))
        elif kind == "write":
            program.append(("write", counter, rng.randrange(100)))
        else:
            program.append(("incr", counter, rng.randint(1, 9)))
    return program


def _drive(
    database, sessions, committed, commit_log, events,
    prefix, rng, report, schedule,
) -> None:
    """Interleave per the schedule until every session commits or gives up."""
    cursor = 0
    while any(not vs.done for vs in sessions):
        runnable = [vs for vs in sessions if not vs.done]
        if schedule is not None and cursor < len(schedule):
            vs = sessions[schedule[cursor] % len(sessions)]
            cursor += 1
            if vs.done:
                continue
        else:
            vs = rng.choice(runnable)
        if vs.position < len(vs.program):
            _step(vs, prefix, committed, events, report)
        else:
            _try_commit(
                database, vs, prefix, committed, commit_log, events, report
            )


def _step(vs, prefix, committed, events, report) -> None:
    op = vs.program[vs.position]
    vs.position += 1
    report.steps += 1
    if op[0] == "read":
        actual = _read(vs, prefix, op[1])
        expected = _expected_read(vs, op[1], committed)
        events.append(("read", vs.index, op[1], actual))
        if actual != expected:
            report.problems.append(
                f"session {vs.index} read x{op[1]} = {actual}, expected "
                f"{expected} (staged={vs.staged}, twin={vs.twin_snapshot})"
            )
    elif op[0] == "write":
        _write(vs, prefix, op[1], op[2], committed)
        events.append(("write", vs.index, op[1], op[2]))
    else:  # incr: a read-modify-write, the OCC-interesting shape
        value = _read(vs, prefix, op[1]) + op[2]
        _write(vs, prefix, op[1], value, committed)
        events.append(("incr", vs.index, op[1], value))


def _try_commit(
    database, vs, prefix, committed, commit_log, events, report
) -> None:
    try:
        tx_time = vs.session.commit()
    except TransactionConflict:
        report.aborts += 1
        events.append(("conflict", vs.index, vs.attempts))
        _check_no_partial_state(database, prefix, committed, vs, report)
        vs.attempts += 1
        if vs.attempts >= _MAX_ATTEMPTS:
            vs.done = True  # starved out; serial replay just omits it
            events.append(("gave_up", vs.index))
        else:
            vs.reset_attempt()
        return
    except OverloadedError as error:
        report.overloads += 1
        events.append(("overloaded", vs.index))
        database.transaction_manager.backoff_clock.advance(
            error.retry_after or 1.0
        )
        vs.session.abort()
        vs.attempts += 1
        if vs.attempts >= _MAX_ATTEMPTS:
            vs.done = True
            events.append(("gave_up", vs.index))
        else:
            vs.reset_attempt()
        return
    report.commits += 1
    events.append(("commit", vs.index, tx_time))
    committed.update(vs.staged)
    commit_log.append((vs.index, list(vs.program)))
    vs.done = True


def _read_counters(database, prefix, n_counters: int) -> dict[int, int]:
    observer = database.login()
    try:
        return {
            j: observer.resolve(_counter_path(prefix, j))
            for j in range(n_counters)
        }
    finally:
        observer.close()


def _check_no_partial_state(database, prefix, committed, vs, report) -> None:
    """An aborted transaction's staged writes must be invisible."""
    visible = _read_counters(database, prefix, len(committed))
    if visible != committed:
        report.problems.append(
            f"after session {vs.index} aborted, committed state is "
            f"{visible}, expected {committed} (staged was {vs.staged})"
        )


def _check_serializability(
    database, sessions, committed, commit_log, events,
    prefix, programs, report,
) -> None:
    """Serial replay of committed bodies must equal the real final state."""
    model = {j: 0 for j in committed}
    for session_index, program in commit_log:
        for op in program:
            if op[0] == "write":
                model[op[1]] = op[2]
            elif op[0] == "incr":
                model[op[1]] = model[op[1]] + op[2]
    final = _read_counters(database, prefix, len(committed))
    if final != model:
        report.problems.append(
            f"committed history is not serializable: store has {final}, "
            f"serial replay in commit order gives {model} "
            f"(commit order {[i for i, _ in commit_log]})"
        )
    if final != committed:
        report.problems.append(
            f"effect tracking diverged: store has {final}, "
            f"tracked committed state is {committed}"
        )


def run_schedule_range(
    database,
    seed: int,
    cases: int,
    *,
    n_sessions: int = 3,
    ops_per_session: int = 4,
    registry=None,
) -> ScheduleReport:
    """Sample ``cases`` random interleavings; aggregate the reports."""
    total = ScheduleReport()
    for case in range(cases):
        total.merge(
            run_schedule_case(
                database, seed, case,
                n_sessions=n_sessions, ops_per_session=ops_per_session,
                registry=registry,
            )
        )
    return total


def exhaustive_two_session_schedules(
    database, seed: int, *, ops_per_session: int = 3, registry=None
) -> ScheduleReport:
    """Enumerate *every* interleaving of two fixed two-session programs.

    With 2 sessions × k steps (+1 commit point each) the schedule space
    is small enough to walk completely — the deterministic analogue of
    a stress test, with no luck involved.
    """
    from itertools import combinations

    total = ScheduleReport()
    slots = ops_per_session + 1  # program steps plus the commit step
    positions = range(2 * slots)
    for case, first_positions in enumerate(combinations(positions, slots)):
        schedule = [
            0 if p in set(first_positions) else 1 for p in positions
        ]
        total.merge(
            run_schedule_case(
                database, seed, case,
                n_sessions=2, ops_per_session=ops_per_session,
                schedule=schedule, registry=registry,
            )
        )
    return total
