"""One harness for every correctness claim: cases → a kind's invariants → failures.

A kind (:data:`KINDS`) is a class with ``OPTIONS`` (its flags and their
defaults — a tuple is a choice, its first entry the default; ``seed``
is one where the kind has a seed), ``COUNTS`` (the counters it reports)
and ``run(case, fail, counts)``; its ``__init__(**options)`` holds what
its cases share.  A kind *may* also have ``census(fail)``: a clean run
returning the ordered ``(node, window)`` instants at which something can
die, and its cases are those instants — the kill sweeps of the recovery
claims.  Any other kind's cases are the seeded draws ``0 .. cases-1``
(the oracles).  A case is a pure function of the options and its index.

One loop, :func:`check`, runs a kind; every violation, a raising case
among them, is a :class:`Failure` carrying ``python -m repro.check KIND
[OPTIONS] --case K``, the command that replays exactly its case.  A run
that would check nothing is a :class:`UsageError`.  See docs/testing.md.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional

#: kind → (module, class) holding its cases and invariants
KINDS = {
    "differential": ("repro.check.differential", "Differential"),
    "temporal": ("repro.check.temporal", "Temporal"),
    "schedule": ("repro.check.schedule", "Schedule"),
    "sharded": ("repro.check.sharded", "Sharded"),
    "cluster": ("repro.check.sharded", "Cluster"),
    "lifting": ("repro.check.lifting", "Lifting"),
    "crash": ("repro.faults.soak", "CrashSweep"),
    "dr": ("repro.dr.soak", "DrSweep"),
    "shard": ("repro.shard.soak", "ShardSweep"),
    "overload": ("repro.check.overload", "Overload"),
}


class UsageError(ValueError):
    """A run that would check nothing, or a case that is not one of the run's."""


def kind_class(kind: str):
    module, name = KINDS[kind]
    return getattr(importlib.import_module(module), name)


def option(default) -> tuple:
    """``(default, choices)`` of one ``OPTIONS`` entry."""
    return (default[0], default) if isinstance(default, tuple) else (default, None)


def reproducer(kind: str, options: dict, case: int) -> str:
    """The command that replays *case* (the clean run, for -1)."""
    flags = "".join(
        f" --{name.replace('_', '-')} {value}"
        for name, value in options.items() if value is not None
    )
    return f"python -m repro.check {kind}{flags}" + (f" --case {case}" if case >= 0 else "")


@dataclass(frozen=True)
class Failure:
    """One violated invariant in one case, with its reproducer."""

    kind: str
    case: int  #: case index — a census instant, or -1 for the clean run
    what: str
    detail: str
    reproducer: str
    #: where a census kind's case is: `` (window of node)``
    where: str = ""

    def describe(self) -> str:
        lines = [f"{self.kind} case={self.case}{self.where}: {self.what}"]
        lines += [f"  {line}" for line in self.detail.splitlines()]
        lines.append(f"  reproduce: {self.reproducer}")
        return "\n".join(lines)


@dataclass
class Report:
    """What one run of one kind observed."""

    kind: str
    options: dict
    counts: dict
    failures: list[Failure] = field(default_factory=list)
    #: case → what the kind's run returned for it, where anything
    steps: dict = field(default_factory=dict)
    #: a census kind's ordered ``(node, window)`` instants; a case indexes it
    census: Optional[list] = None
    cases_run: int = 0
    #: the strings the cases returned (the schedule explorer's event-log
    #: digests), chained into one ("" if none did)
    chain: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> dict:
        """JSON-ready summary for CI and shell pipelines."""
        summary = {"kind": self.kind} | {
            name: value for name, value in self.options.items() if value is not None
        }
        if self.census is not None:
            summary["census"] = len(self.census)
            summary["census_sha256"] = sha256(repr(self.census).encode()).hexdigest()[:16]
        summary |= {"cases_run": self.cases_run, **self.counts}
        if self.chain:
            summary["digest"] = self.chain[:12]
        return summary | {"failures": len(self.failures), "ok": self.ok}


def _selection(total: Optional[int], case, cases) -> range:
    """Only *case*; else every census instant of *total*, or ``0 ..
    cases-1`` for a kind without a census (*total* None)."""
    if total == 0:
        raise UsageError("the clean run has no instant to kill")
    if case is not None and case < 0:
        raise UsageError(f"case {case} is negative")
    if case is not None and total is not None and not 0 <= case < total:
        raise UsageError(f"case {case} outside the run's {total} instants")
    if case is None and total is None and (cases is None or cases < 1):
        raise UsageError(f"a range of {cases} cases checks nothing")
    return range(case, case + 1) if case is not None else range(total or cases)


def check(kind: str, *, case: Optional[int] = None, cases: Optional[int] = None,
          stride: int = 1, registry=None, **options) -> Report:
    """Run *kind* with *options* (its ``OPTIONS``, defaulted, and any
    other keyword its ``__init__`` takes, such as an oracle's
    ``database``): only *case*; else every *stride*-th census instant,
    or cases ``0 .. cases-1``.  *registry* defaults to the kind's own
    (its database's), if it has one.
    """
    if stride < 1:
        raise UsageError(f"stride {stride} is not positive")
    cls = kind_class(kind)
    options = {name: option(default)[0] for name, default in cls.OPTIONS.items()} | options
    flags = {name: options[name] for name in cls.OPTIONS}
    report = Report(kind, flags, dict.fromkeys(cls.COUNTS, 0))
    runner, sweeping = cls(**options), hasattr(cls, "census")
    registry = registry if registry is not None else getattr(runner, "registry", None)
    prefix = f"check.{getattr(cls, 'PREFIX', kind)}"

    def guarded(index: int, call):
        where = ""
        if sweeping:
            where = " ({1} of {0})".format(*report.census[index]) if index >= 0 \
                else " (the clean run)"

        def fail(what: str, detail: str = "") -> None:
            report.failures.append(Failure(
                kind, index, what, detail, reproducer(kind, flags, index), where,
            ))
        try:
            return call(fail)
        except Exception as error:  # noqa: BLE001 — a raising case is a failure
            fail("unexpected-exception", f"{type(error).__name__}: {error}")

    if sweeping:
        report.census = guarded(-1, runner.census) or []
        if report.failures:
            return report
    total = len(report.census) if sweeping else None
    for index in _selection(total, case, cases)[::stride]:
        before, failed = dict(report.counts), len(report.failures)
        step = guarded(index, lambda fail: runner.run(index, fail, report.counts))
        report.cases_run += 1
        if step is not None:
            report.steps[index] = step
        if isinstance(step, str):
            report.chain = sha256((report.chain + step).encode()).hexdigest()
        if registry is not None:
            for name, value in report.counts.items():
                registry.inc(f"{prefix}.{name}", value - before[name])
            if len(report.failures) > failed:
                registry.inc(f"{prefix}.{getattr(cls, 'FAILED', 'failures')}",
                             len(report.failures) - failed)
    return report
