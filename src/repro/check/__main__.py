"""The oracle CLI: ``python -m repro.check [--oracle O] --seed N (--case
K | --cases N) [--bug B] [--shrink]``.

Every oracle failure prints exactly such an invocation, so a reported bug
can be replayed (and, for the differential, shrunk) with one copy-paste.
Exit status is 0 when every case passes, 1 when one fails — so the
reproducer doubles as a regression guard in shell pipelines — and 2 on a
usage error: a flag the kind does not take.
"""

from __future__ import annotations

import argparse
import sys

from .harness import KINDS, check, kind_class


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Run one oracle over one generated case or a range.",
    )
    parser.add_argument("--oracle", choices=KINDS, default="differential")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--case", type=int, default=None,
                        help="case index (a reproducer); omit to run a range")
    parser.add_argument("--cases", type=int, default=20,
                        help="range size when --case is omitted")
    parser.add_argument(
        "--bug", choices=("stale-memo", "skip-maintenance"), default=None,
        help="inject a known bug (test-only) so the oracle must fail",
    )
    parser.add_argument("--shrink", action="store_true",
                        help="on failure, print each failing case shrunk")
    args = parser.parse_args(argv)
    cls = kind_class(args.oracle)
    if (args.bug and args.bug not in getattr(cls, "BUGS", ())
            or args.shrink and not hasattr(cls, "shrink")):
        print(f"error: --oracle {args.oracle} takes no --bug or --shrink",
              file=sys.stderr)
        return 2
    options = {"bug": args.bug} if args.bug else {}
    report = check(args.oracle, args.seed, cases=args.cases, case=args.case,
                   **options)
    where = f"case={args.case}" if args.case is not None else f"range={args.cases}"
    digest = f" digest={report.digest[:12]}" if report.digest else ""
    print(f"{args.oracle}: seed={args.seed} {where} " + " ".join(
        f"{name}={value}" for name, value in report.counts.items()
    ) + digest)
    for failure in report.failures:
        print(failure.describe())
    if report.ok:
        print(f"ok: {cls.__doc__.splitlines()[0]}")
        return 0
    if args.shrink:
        runner = cls(args.seed, **options)
        for case in sorted({failure.case for failure in report.failures}):
            print(f"\nshrunk reproducer:\n{runner.shrink(case)}")
    print(f"FAILED: {len(report.failures)} failures")
    return 1


if __name__ == "__main__":
    sys.exit(main())
