"""One oracle harness: seeded cases → one kind's invariants → failures.

An oracle checks an equivalence case by case; a case is a pure function
of ``(seed, case index)``, so ``--seed N --case K`` is a complete
reproducer.  A kind (:data:`KINDS`) is a class holding its fixed
constants, ``COUNTS`` (the counters it reports), ``PREFIX`` and
``FAILED`` (its registry and soak names: ``check.PREFIX.COUNT``,
``check.PREFIX.FAILED``) and ``run(case, fail, counts)``; its
``__init__(seed, ...)`` holds whatever its cases share.  One loop,
:func:`check`, runs a kind over a case or a range; every violation is a
:class:`Failure` carrying the command that replays its case.  A kind
whose ``run`` returns a digest of what it observed (the schedule
explorer's event log) gets them chained into :attr:`Report.digest`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional

#: kind → (module, class) holding its generator and invariants
KINDS = {
    "differential": ("differential", "Differential"),
    "temporal": ("temporal", "Temporal"),
    "schedule": ("schedule", "Schedule"),
    "sharded": ("sharded", "Sharded"),
    "cluster": ("sharded", "Cluster"),
    "lifting": ("lifting", "Lifting"),
}

#: ``World!padNN`` bindings the oracles' database starts with
_PAD_KEYS = 64


class CheckFailure(AssertionError):
    """An oracle found a divergence; the message embeds a reproducer."""


def kind_class(kind: str):
    module, name = KINDS[kind]
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


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


def reproducer(kind: str, seed: int, case: int, bug: Optional[str] = None) -> str:
    """The command that replays one case."""
    command = f"python -m repro.check --seed {seed} --case {case}"
    if kind != "differential":
        command += f" --oracle {kind}"
    return command + (f" --bug {bug}" if bug else "")


@dataclass(frozen=True)
class Failure:
    """One violated invariant in one case, with its reproducer."""

    kind: str
    seed: int
    case: int
    what: str
    detail: str
    reproducer: str

    def describe(self) -> str:
        lines = [f"{self.kind} seed={self.seed} case={self.case}: {self.what}"]
        lines += [f"  {line}" for line in self.detail.splitlines()]
        lines.append(f"  reproduce: {self.reproducer}")
        return "\n".join(lines)


@dataclass
class Report:
    """What one run of one kind observed."""

    kind: str
    seed: int
    counts: dict
    failures: list[Failure] = field(default_factory=list)
    #: the chained digests the kind's cases returned ("" if none did)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def check(kind: str, seed: int, *, cases: int = 0, case: Optional[int] = None,
          registry=None, **options) -> Report:
    """Run *kind* over cases ``0 .. cases-1``, or only *case*.

    *options* go to the kind's ``__init__`` (``bug`` for the
    differential, ``database`` for temporal and schedule); *registry*
    defaults to the kind's own (its database's), if it has one.
    """
    cls = kind_class(kind)
    runner = cls(seed, **options)
    registry = registry if registry is not None else getattr(runner, "registry", None)
    report = Report(kind, seed, dict.fromkeys(cls.COUNTS, 0))
    for index in range(cases) if case is None else (case,):
        command = reproducer(kind, seed, index, options.get("bug"))

        def fail(what: str, detail: str = "") -> None:
            report.failures.append(Failure(kind, seed, index, what, detail, command))

        before, failed = dict(report.counts), len(report.failures)
        digest = runner.run(index, fail, report.counts)
        if digest is not None:
            report.digest = sha256((report.digest + digest).encode()).hexdigest()
        if registry is not None:
            for name, value in report.counts.items():
                registry.inc(f"check.{cls.PREFIX}.{name}", value - before[name])
            if len(report.failures) > failed:
                registry.inc(f"check.{cls.PREFIX}.{cls.FAILED}",
                             len(report.failures) - failed)
    return report


def run_soak(seed: int, *, diff_cases: int = 40, temporal_cases: int = 10,
             schedule_cases: int = 6, sharded_cases: int = 3,
             lifting_cases: int = 4, registry=None) -> dict:
    """Every kind but ``cluster`` over a range; raises
    :class:`CheckFailure` on any failure, else returns metrics whose
    ``digest`` is identical across runs of the same seed.

    Temporal runs before schedule on one shared :func:`oracle_database`
    (the schedule digest depends on what the store already holds).
    """
    database = oracle_database()
    runs = {
        "differential": (diff_cases, {}),
        "temporal": (temporal_cases, {"database": database}),
        "schedule": (schedule_cases, {"database": database}),
        "sharded": (sharded_cases, {}),
        "lifting": (lifting_cases, {}),
    }
    *digested, lifting = [
        check(kind, seed, cases=cases, registry=registry, **options)
        for kind, (cases, options) in runs.items()
    ]
    failures = [f.describe() for r in (*digested, lifting) for f in r.failures]

    def prefixed(report: Report) -> dict:
        prefix = kind_class(report.kind).PREFIX
        return {f"{prefix}_{name}": value for name, value in report.counts.items()}

    metrics = {"seed": seed, "problems": len(failures)}
    for report in digested:
        metrics |= prefixed(report)
    metrics["digest"] = sha256(
        (repr(sorted(metrics.items())) + "".join(r.digest for r in digested)).encode()
    ).hexdigest()
    # after the digest: it is compared across commits, and must not move
    # because an oracle was added (a lifting failure still moves it,
    # through ``problems``)
    metrics |= prefixed(lifting)
    metrics["problem_details"] = failures
    if failures:
        raise CheckFailure(
            f"{len(failures)} oracle failure(s) at seed {seed}:\n"
            + "\n\n".join(failures)
        )
    return metrics
