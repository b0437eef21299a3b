"""The one harness over its ten kinds: the CLI contract.

Every kind answers the same questions the same way: ``--case 0`` passes
and prints ``ok:``; ``--json`` prints the digest, the same on a second
run; ``--case K`` runs exactly case K, in every region of a census; a
flag the kind does not take, and a run that would check nothing, are
usage errors; and a real defect is reported as
:class:`~repro.check.Failure` records whose reproducer names the kind,
its options and the case, and fails again alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import KINDS, check, reproducer
from repro.check.__main__ import main
from repro.check.harness import kind_class
from repro.concurrency import transactions
from repro.core.timedial import TimeDial
from repro.dr.ship import LogShipper
from repro.errors import QueryBudgetExceeded
from repro.executor.executor import Executor
from repro.govern.budget import QueryBudget
from repro.opal import interpreter
from repro.shard.cluster import ShardedSession
from repro.shard.decisions import DecisionLog
from repro.stdm import algebra
from repro.storage.commit import CommitManager

SEED = 2026
#: the first case of SEED the injected stale-memo bug fails (a directory
#: drop, then a re-query); re-pin when the generator stream changes
STALE_MEMO_CASE = 31
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: each kind's options for a small run
OPTIONS = {kind: {"seed": SEED} for kind in KINDS} | {
    "crash": {"commits": 2, "writes_per_commit": 1},
    "dr": {"seed": 11, "commits": 2, "writes_per_commit": 2},
    "shard": {"host": "memory", "seed": 11, "shards": 2, "transactions": 4},
    "overload": {"host": "herd", "seed": SEED},
}
#: the kinds whose cases are the instants of a clean run
CENSUS = [kind for kind in KINDS if hasattr(kind_class(kind), "census")]


def argv(kind: str, *extra: str) -> list[str]:
    flags = [
        part for name, value in OPTIONS[kind].items()
        for part in ("--" + name.replace("_", "-"), str(value))
    ]
    return [kind, *flags, *extra]


def test_the_census_kinds_are_the_kill_sweeps():
    assert CENSUS == ["crash", "dr", "shard"]


@pytest.mark.parametrize("kind", KINDS)
def test_case_zero_passes(kind, capsys):
    assert main(argv(kind, "--case", "0")) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{kind}: ")
    assert " cases_run=1 " in out
    assert "\nok: " in out


@pytest.mark.parametrize("kind", KINDS)
def test_json_digest_output(kind, capsys):
    """The digest is JSON, and a pure function of the command: a second
    run in the same process prints the same document."""
    documents = []
    for _ in range(2):
        assert main(argv(kind, "--case", "1", "--json")) == 0
        out = capsys.readouterr()
        assert out.err.startswith("ok: ")
        documents.append(json.loads(out.out))
    digest, again = documents
    assert again == digest
    assert digest["ok"] is True
    assert digest["kind"] == kind
    assert digest["cases_run"] == 1
    assert ("census" in digest) == (kind in CENSUS)
    assert digest.get("census", 2) > 1
    assert set(kind_class(kind).COUNTS) <= set(digest)
    assert {name: digest[name] for name in OPTIONS[kind]} == OPTIONS[kind]


def test_a_range_runs_the_named_kind(capsys):
    assert main(["temporal", "--seed", str(SEED), "--cases", "3"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"temporal: seed={SEED} cases_run=3 histories=3 ")
    assert "queries" not in first and "evaluations" not in first


def test_a_failing_range_exits_one_and_prints_its_failures(capsys):
    assert main(["differential", "--seed", str(SEED), "--cases", str(STALE_MEMO_CASE + 1),
                 "--bug", "stale-memo"]) == 1
    out = capsys.readouterr().out
    assert f"--seed {SEED} --bug stale-memo --case {STALE_MEMO_CASE}" in out
    assert "FAILED: " in out


#: the regions of each census, as (kind, node, window or None for any)
REGIONS = [
    ("crash", "disk", "commit 0"),
    ("crash", "disk", "commit 1"),
    ("dr", "primary", "send"),
    ("dr", "primary", "ack"),
    ("dr", "rebuild", "write"),
    ("shard", "coord", None),
    ("shard", 0, None),
    ("shard", 1, None),
]


@pytest.mark.parametrize(
    "kind,node,window", REGIONS,
    ids=[f"{kind}-{node}-{(window or 'any').replace(' ', '')}"
         for kind, node, window in REGIONS],
)
def test_case_runs_exactly_one_census_instant(kind, node, window, monkeypatch, capsys):
    """``--case K`` replays instant K and nothing else, in every region
    of every census — K is the region's last instant, never 0."""
    census = check(kind, case=0, **OPTIONS[kind]).census
    point = max(
        index for index, (who, name) in enumerate(census)
        if who == node and window in (None, name)
    )
    assert point > 0
    cls, ran = kind_class(kind), []
    real = cls.run
    monkeypatch.setattr(
        cls, "run", lambda self, at, *rest: ran.append(at) or real(self, at, *rest)
    )
    assert main(argv(kind, "--case", str(point))) == 0
    assert ran == [point]


@pytest.mark.parametrize("flags", [
    ["temporal", "--bug", "stale-memo"],
    ["lifting", "--shrink"],
    ["crash", "--kill", "0"],
])
def test_a_flag_the_kind_does_not_take_is_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as exited:
        main([*flags, "--case", "0"])
    assert exited.value.code == 2
    assert "error: unrecognized arguments: " in capsys.readouterr().err


@pytest.mark.parametrize("args,error", [
    (["crash", "--commits", "0", "--writes-per-commit", "1"],
     "the clean run has no instant to kill"),
    (["differential", "--cases", "0"], "a range of 0 cases checks nothing"),
    (["differential", "--case", "-1"], "case -1 is negative"),
    (["lifting", "--cases", "-1"], "a range of -1 cases checks nothing"),
    (["dr", "--commits", "1", "--stride", "0"], "stride 0 is not positive"),
    (["overload", "--host", "frontdoor", "--sessions", "0"],
     "0 sessions at rate 600.0 offer no load"),
    (["overload", "--sessions", "8"],
     "the herd's size is fixed; --sessions and --rate size the front door's arrivals"),
], ids=["empty-census", "no-cases", "negative-case", "negative-cases", "zero-stride",
        "no-arrivals", "sized-herd"])
def test_a_run_that_checks_nothing_is_a_usage_error(args, error, capsys):
    with pytest.raises(SystemExit) as exited:
        main(args)
    assert exited.value.code == 2
    assert capsys.readouterr().err == f"python -m repro.check {args[0]}: error: {error}\n"


@pytest.mark.parametrize("kind", CENSUS)
def test_out_of_range_case_is_a_usage_error(kind, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv(kind, "--case", "99999"))
    assert exited.value.code == 2
    assert "error: case 99999 outside the run's " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["temporal", "crash"])
def test_a_raising_case_is_a_failure_with_its_reproducer(kind, monkeypatch):
    def run(self, case, fail, counts):
        raise RuntimeError("boom")

    monkeypatch.setattr(kind_class(kind), "run", run)
    [failure] = check(kind, case=1, **OPTIONS[kind]).failures
    assert (failure.case, failure.what) == (1, "unexpected-exception")
    assert failure.detail == "RuntimeError: boom"
    assert failure.reproducer == reproducer(kind, OPTIONS[kind], 1)


def root_published_before_its_group(monkeypatch):
    """The Commit Manager flips the root before the shadow group it
    names is on the platter."""
    real = CommitManager.commit

    def commit(self, shadow_writes, root_fields):
        self.tracks.write_group = lambda writes: None
        try:
            epoch = real(self, shadow_writes, root_fields)
        finally:
            del self.tracks.write_group
        self.tracks.write_group(shadow_writes)
        return epoch

    monkeypatch.setattr(CommitManager, "commit", commit)


def commit_acknowledged_before_it_ships(monkeypatch):
    """The primary acknowledges a commit whose record never shipped."""
    monkeypatch.setattr(LogShipper, "on_commit", lambda self, *record: None)


def decision_not_forced_to_disk(monkeypatch):
    """The coordinator sends DECIDE with the decision only in memory."""
    monkeypatch.setattr(
        DecisionLog, "record_commit",
        lambda self, gtid, participants: self._decisions.__setitem__(
            gtid, tuple(sorted(participants))
        ),
    )


def bracket_loses_its_last_entry(monkeypatch):
    """An index range probe stops one entry short of its high end."""
    real = algebra.IndexRange._probe
    monkeypatch.setattr(
        algebra.IndexRange, "_probe",
        lambda self, ctx, low, high: real(self, ctx, low, high)[:-1],
    )


def safe_time_not_clamped(monkeypatch):
    """SafeTime is taken from its provider even past the commit clock."""
    def set_safe(self):
        self.time = self._safe_time_provider()
        return self.time

    monkeypatch.setattr(TimeDial, "set_safe", set_safe)


def reads_never_conflict(monkeypatch):
    """Validation ignores what a transaction read: lost updates commit."""
    monkeypatch.setattr(transactions, "_read_conflicts", lambda *args, **kw: set())


def commit_acknowledged_unsent(monkeypatch):
    """The single-shard fast path acknowledges a commit it never sent."""
    real = ShardedSession.commit

    def commit(self):
        if len(self._participants) != 1:
            return real(self)
        self._gtid, self._participants = None, []
        return 1

    monkeypatch.setattr(ShardedSession, "commit", commit)


def literals_of_the_first_text(monkeypatch):
    """A compiled-block hit runs with the literals it was compiled for."""
    real, first = interpreter.OpalEngine._compiled, {}

    def compiled(self, source, names):
        method, literals = real(self, source, names)
        # keyed by identity, the method kept alive beside its literals
        return method, first.setdefault(id(method), (method, literals))[1]

    monkeypatch.setattr(interpreter.OpalEngine, "_compiled", compiled)


def budget_kill_escapes_untyped(monkeypatch):
    """A query past its step budget dies by a bare RuntimeError."""
    real = QueryBudget.charge_steps

    def charge_steps(self, count=1):
        try:
            real(self, count)
        except QueryBudgetExceeded as error:
            raise RuntimeError(str(error)) from None

    monkeypatch.setattr(QueryBudget, "charge_steps", charge_steps)


#: kind → (a defect it must catch, how many cases it gets to catch it
#: in; a census kind runs its whole census)
DEFECTS = {
    "differential": (bracket_loses_its_last_entry, 12),
    "temporal": (safe_time_not_clamped, 1),
    "schedule": (reads_never_conflict, 6),
    "sharded": (commit_acknowledged_unsent, 1),
    "cluster": (commit_acknowledged_unsent, 1),
    "lifting": (literals_of_the_first_text, 1),
    "crash": (root_published_before_its_group, None),
    "dr": (commit_acknowledged_before_it_ships, None),
    "shard": (decision_not_forced_to_disk, None),
    "overload": (budget_kill_escapes_untyped, 1),
}


@pytest.mark.parametrize("kind", KINDS)
def test_an_injected_defect_fails_with_a_reproducer(kind, monkeypatch, capsys):
    defect, cases = DEFECTS[kind]
    defect(monkeypatch)
    report = check(kind, cases=cases, **OPTIONS[kind])
    assert not report.ok
    for failure in report.failures:
        assert failure.kind == kind
        assert failure.reproducer == reproducer(kind, OPTIONS[kind], failure.case)
        assert failure.reproducer.endswith(f" --case {failure.case}")
    failure = report.failures[0]
    assert main(failure.reproducer.split()[3:]) == 1
    out = capsys.readouterr().out
    assert " cases_run=1 " in out
    assert f"{kind} case={failure.case}{failure.where}: {failure.what}" in out


def test_the_differential_reproducer_re_fails_as_a_subprocess():
    failure = check(
        "differential", seed=SEED, cases=STALE_MEMO_CASE + 1, bug="stale-memo"
    ).failures[-1]
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *failure.reproducer.split()[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert failure.describe() in result.stdout


def test_a_raw_server_exception_fails_the_front_door(monkeypatch, capsys):
    """The Executor answers a request with an exception the wire does not
    know: the client sees it rehydrated, and that is not a typed shed."""
    real, calls = Executor._execute, []

    def execute(self, source):
        calls.append(source)
        if len(calls) % 300 == 7:
            raise RuntimeError("boom")
        return real(self, source)

    monkeypatch.setattr(Executor, "_execute", execute)
    options = {"host": "frontdoor", "seed": SEED}
    report = check("overload", case=0, **options)
    assert {failure.what for failure in report.failures} == {"untyped"}
    assert "RuntimeError: boom" in report.failures[0].detail
    assert report.failures[0].reproducer == reproducer("overload", options, 0)
    calls.clear()
    assert main(report.failures[0].reproducer.split()[3:]) == 1
    assert "overload case=0: untyped" in capsys.readouterr().out
