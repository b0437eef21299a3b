"""The one kill-sweep harness over its three kinds: the CLI contract.

Every kind answers the same questions the same way: a JSON digest, a
single-kill replay that runs exactly one census instant, an out-of-range
kill that is a usage error, and a real defect that the sweep reports
with a ``python -m repro.sweep`` reproducer which fails again alone.
"""

import json

import pytest

from repro.dr.ship import LogShipper
from repro.shard.decisions import DecisionLog
from repro.storage.commit import CommitManager
from repro.sweep import KINDS, kind_class, main, sweep

#: a small run of each kind
OPTIONS = {
    "crash": {"commits": 2, "writes_per_commit": 1},
    "dr": {"seed": 11, "commits": 2, "writes_per_commit": 2},
    "shard": {"host": "memory", "seed": 11, "shards": 2, "transactions": 4},
}


def argv(kind: str, *extra: str) -> list[str]:
    flags = [
        part for name, value in OPTIONS[kind].items()
        for part in ("--" + name.replace("_", "-"), str(value))
    ]
    return [kind, *flags, *extra]


@pytest.mark.parametrize("kind", KINDS)
def test_json_digest_output(kind, capsys):
    assert main(argv(kind, "--kill", "1", "--json")) == 0
    digest = json.loads(capsys.readouterr().out.split("\nok:")[0])
    assert digest["ok"] is True
    assert digest["kind"] == kind
    assert digest["points_run"] == 1 < digest["census"]
    assert set(kind_class(kind).COUNTS) <= set(digest)
    assert {name: digest[name] for name in OPTIONS[kind]} == OPTIONS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_single_kill_replay_exits_zero(kind, capsys):
    assert main(argv(kind, "--kill", "0")) == 0
    out = capsys.readouterr().out
    assert " points_run=1 " in out
    assert "ok: every invariant held at 1 kill points" in out


#: the regions of each kind's census, as (node, window or None for any)
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
def test_kill_runs_exactly_one_point(kind, node, window, monkeypatch, capsys):
    """``--kill K`` replays instant K and nothing else, in every region
    of every census — K is the region's last instant, never 0."""
    census = sweep(kind, kill=0, **OPTIONS[kind]).census
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
    assert main(argv(kind, "--kill", str(point))) == 0
    assert ran == [point]


@pytest.mark.parametrize("kind", KINDS)
def test_out_of_range_kill_is_a_usage_error(kind, capsys):
    assert main(argv(kind, "--kill", "99999")) == 2
    assert "error: kill point 99999 outside" in capsys.readouterr().err


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


DEFECTS = {
    "crash": root_published_before_its_group,
    "dr": commit_acknowledged_before_it_ships,
    "shard": decision_not_forced_to_disk,
}


@pytest.mark.parametrize("kind", KINDS)
def test_an_injected_defect_fails_with_a_reproducer(kind, monkeypatch, capsys):
    DEFECTS[kind](monkeypatch)
    report = sweep(kind, **OPTIONS[kind])
    assert not report.ok
    prefix = f"python -m repro.sweep {kind} "
    assert all(f.reproducer.startswith(prefix) for f in report.failures)
    failure = report.failures[0]
    assert main(failure.reproducer[len("python -m repro.sweep "):].split()) == 1
    out = capsys.readouterr().out
    assert " points_run=1 " in out
    assert f"kill={failure.point} ({failure.window} of {failure.victim}): " \
        f"{failure.invariant}" in out
