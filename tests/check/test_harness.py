"""The one oracle harness over its six kinds: the CLI contract.

Every kind answers the same questions the same way: ``--case 0`` passes
and prints ``ok:``; a range runs the named kind with its flags; a flag
the kind does not take is a usage error; and a real defect is reported
as :class:`~repro.check.Failure` records whose reproducer names the
kind, seed and case, and fails again alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import KINDS, check, reproducer
from repro.check.__main__ import main
from repro.concurrency import transactions
from repro.core.timedial import TimeDial
from repro.opal import interpreter
from repro.shard.cluster import ShardedSession
from repro.stdm import algebra

SEED = 2026
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize("kind", KINDS)
def test_case_zero_passes(kind, capsys):
    assert main(["--oracle", kind, "--seed", str(SEED), "--case", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{kind}: seed={SEED} case=0 ")
    assert "\nok: " in out


def test_a_failing_range_exits_one_and_prints_its_failures(capsys):
    # the range used to run the whole soak, ignoring --bug, and exit 0
    assert main(["--seed", str(SEED), "--cases", "12", "--bug", "stale-memo"]) == 1
    out = capsys.readouterr().out
    assert f"--seed {SEED} --case 11 --bug stale-memo" in out
    assert "FAILED: " in out


def test_a_range_runs_the_named_kind(capsys):
    assert main(["--oracle", "temporal", "--seed", str(SEED), "--cases", "3"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"temporal: seed={SEED} range=3 histories=3 ")
    assert "queries" not in first and "evaluations" not in first


@pytest.mark.parametrize("flags", [
    ["--oracle", "temporal", "--bug", "stale-memo"],
    ["--oracle", "lifting", "--shrink"],
    ["--oracle", "cluster", "--bug", "skip-maintenance", "--shrink"],
])
def test_a_flag_the_kind_does_not_take_is_a_usage_error(flags, capsys):
    assert main([*flags, "--seed", str(SEED), "--case", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: --oracle {flags[1]} takes no")


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


#: kind → (a defect it must catch, the cases it gets to catch it in)
DEFECTS = {
    "differential": (bracket_loses_its_last_entry, 12),
    "temporal": (safe_time_not_clamped, 1),
    "schedule": (reads_never_conflict, 6),
    "sharded": (commit_acknowledged_unsent, 1),
    "cluster": (commit_acknowledged_unsent, 1),
    "lifting": (literals_of_the_first_text, 1),
}


@pytest.mark.parametrize("kind", KINDS)
def test_an_injected_defect_fails_with_a_reproducer(kind, monkeypatch, capsys):
    defect, cases = DEFECTS[kind]
    defect(monkeypatch)
    report = check(kind, SEED, cases=cases)
    assert not report.ok
    for failure in report.failures:
        assert (failure.kind, failure.seed) == (kind, SEED)
        assert failure.reproducer == reproducer(kind, SEED, failure.case)
        assert f"--seed {SEED} --case {failure.case}" in failure.reproducer
        assert (f"--oracle {kind}" in failure.reproducer) == (kind != "differential")
    failure = report.failures[0]
    assert main(failure.reproducer.split()[3:]) == 1
    out = capsys.readouterr().out
    assert f"{kind} seed={SEED} case={failure.case}: {failure.what}" in out


def test_the_differential_reproducer_re_fails_as_a_subprocess():
    failure = check("differential", SEED, cases=12, bug="stale-memo").failures[-1]
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *failure.reproducer.split()[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert failure.describe() in result.stdout
