"""One kill sweep: census → kill point → verify, for every recovery claim.

A recovery claim is checked by killing the system at *every* instant of
a run.  A clean run returns a **census** — the ordered ``(node,
window)`` instants at which something can die; one selector picks the
**kill points** (every *stride*-th, or the one ``--kill`` names); one
run per point kills its node there, recovers, and checks the kind's
invariants.  Every violation is a :class:`Failure` carrying the command
that replays exactly that point.  See docs/testing.md, "Sweeps".

A kind (:data:`KINDS`: ``crash``, ``dr``, ``shard``) is a class with
``OPTIONS`` (its CLI flags and their defaults; a tuple is a choice, its
first entry the default), ``COUNTS`` (the counters its digest reports),
``census(fail)`` and ``run(point, fail, counts)``.  ``python -m
repro.sweep KIND [--stride N | --kill K] [--json]`` exits 0 when every
invariant held, 1 on a failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Optional

#: kind → the class holding its workload, clean run and invariants
KINDS = {
    "crash": ("repro.faults.soak", "CrashSweep"),
    "dr": ("repro.dr.soak", "DrSweep"),
    "shard": ("repro.shard.soak", "ShardSweep"),
}


class WindowKiller:
    """Counts one node's windows; kills it at exactly one.

    A sweep builds one as a *plan* — which node, at which of its
    windows: a flat *kill_at* index (the sweep's handle) or a named
    *(window, nth)* pair (a test matrix's) — and hands it to what it
    kills.  A cluster gives every node its own copy (:meth:`for_node`)
    carrying the *kill* action of wherever that node runs: raise an
    exception that is not a ``GemStoneError`` (so no retry layer can
    swallow it), or SIGKILL the process.  A plan with no victim only
    counts.
    """

    def __init__(
        self,
        victim=None,
        kill_at: Optional[int] = None,
        kill_window: Optional[tuple[str, int]] = None,
        kill: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.victim = victim
        self.kill_at = kill_at
        self.kill_window = kill_window
        self.kill = kill
        #: the names of the windows reached, in order
        self.log: list[str] = []

    def for_node(self, node, kill) -> "WindowKiller":
        """This plan as *node* sees it: armed only if it is the victim."""
        if node != self.victim:
            return WindowKiller(node, kill=kill)
        return WindowKiller(node, self.kill_at, self.kill_window, kill)

    def window(self, name: str, victim) -> None:
        """One window of *victim*, the node this copy counts."""
        index, nth = len(self.log), self.log.count(name)
        self.log.append(name)
        if index == self.kill_at or (name, nth) == self.kill_window:
            self.kill(name, victim)


@dataclass(frozen=True)
class Failure:
    """One violated invariant at one kill point, with its reproducer."""

    point: int  #: census index, or -1 for the clean run
    window: str
    victim: str
    invariant: str
    detail: str
    reproducer: str

    def describe(self) -> str:
        return (
            f"kill={self.point} ({self.window} of {self.victim}): "
            f"{self.invariant} — {self.detail}\n  reproduce: {self.reproducer}"
        )


@dataclass
class SweepReport:
    """What one sweep observed."""

    kind: str
    options: dict
    #: the clean run's ordered ``(node, window)`` instants; a kill point
    #: indexes it
    census: list[tuple] = field(default_factory=list)
    points_run: int = 0
    counts: dict = field(default_factory=dict)
    #: kill point → what the kind's run returned for it, where anything
    steps: dict = field(default_factory=dict)
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> dict:
        """JSON-ready summary for CI and shell pipelines."""
        return {
            "kind": self.kind,
            **self.options,
            "census": len(self.census),
            "census_sha256": sha256(repr(self.census).encode()).hexdigest()[:16],
            "points_run": self.points_run,
            **self.counts,
            "failures": len(self.failures),
            "ok": self.ok,
        }


class KillOutOfRange(ValueError):
    """A ``--kill`` or ``--stride`` the census cannot satisfy."""


def reproducer(kind: str, options: dict, point: int) -> str:
    """The command that replays *point* (the clean run, for -1)."""
    flags = "".join(
        f" --{name.replace('_', '-')} {value}" for name, value in options.items()
    )
    kill = f" --kill {point}" if point >= 0 else ""
    return f"python -m repro.sweep {kind}{flags}{kill}"


def kill_points(total: int, stride: int = 1, kill: Optional[int] = None) -> range:
    """Every *stride*-th census index, or only *kill*."""
    if kill is not None and not 0 <= kill < total:
        raise KillOutOfRange(f"kill point {kill} outside the run's {total} instants")
    if stride < 1:
        raise KillOutOfRange(f"stride {stride} is not positive")
    return range(0, total, stride) if kill is None else range(kill, kill + 1)


def kind_class(kind: str):
    module, name = KINDS[kind]
    return getattr(importlib.import_module(module), name)


def _option(default) -> tuple:
    """``(default, choices)`` of one ``OPTIONS`` entry."""
    return (default[0], default) if isinstance(default, tuple) else (default, None)


def sweep(kind: str, stride: int = 1, kill: Optional[int] = None,
          **options) -> SweepReport:
    """Run the *kind* sweep with *options* (its ``OPTIONS``, defaulted)."""
    cls = kind_class(kind)
    options = {
        name: _option(default)[0] for name, default in cls.OPTIONS.items()
    } | options
    report = SweepReport(kind, options, counts=dict.fromkeys(cls.COUNTS, 0))

    def fail_at(point: int):
        node, window = report.census[point] if point >= 0 else ("-", "clean")

        def fail(invariant: str, detail: str) -> None:
            report.failures.append(Failure(
                point, window, str(node), invariant, detail,
                reproducer(kind, options, point),
            ))
        return fail

    def guarded(fail, call, *args):
        try:
            return call(*args)
        except Exception as error:  # noqa: BLE001 — a raising point is a failure
            fail("unexpected-exception", f"{type(error).__name__}: {error}")

    runner, clean = cls(**options), fail_at(-1)
    report.census = guarded(clean, runner.census, clean) or []
    if report.failures:
        return report
    for point in kill_points(len(report.census), stride, kill):
        report.points_run += 1
        fail = fail_at(point)
        step = guarded(fail, runner.run, point, fail, report.counts)
        if step is not None:
            report.steps[point] = step
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Kill the system at every instant of a clean run; "
        "verify what survives.",
    )
    kinds = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        cls = kind_class(kind)
        sub = kinds.add_parser(kind, help=cls.__doc__.splitlines()[0])
        for name, default in cls.OPTIONS.items():
            default, choices = _option(default)
            sub.add_argument("--" + name.replace("_", "-"), type=type(default),
                             default=default, choices=choices)
        sub.add_argument("--stride", type=int, default=1,
                         help="run every Nth census instant (smoke runs)")
        sub.add_argument("--kill", type=int, default=None,
                         help="run only census instant K (a reproducer)")
        sub.add_argument("--json", action="store_true",
                         help="print the digest as JSON")
    options = vars(parser.parse_args(argv))
    kind, stride, kill, as_json = (
        options.pop(name) for name in ("kind", "stride", "kill", "json")
    )
    try:
        report = sweep(kind, stride, kill, **options)
    except KillOutOfRange as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    digest = report.digest()
    if as_json:
        print(json.dumps(digest, indent=2, sort_keys=True))
    else:
        print(f"{kind} sweep: " + " ".join(
            f"{name}={value}" for name, value in digest.items()
            if name not in ("kind", "ok")
        ))
    for failure in report.failures:
        print(failure.describe())
    if report.ok:
        print(f"ok: every invariant held at {report.points_run} kill points")
        return 0
    print(f"FAILED: {len(report.failures)} invariant violations")
    return 1


if __name__ == "__main__":
    # run the importable module's main, so the kinds and this CLI share
    # one copy of its classes
    from repro.sweep import main as _main

    sys.exit(_main())
