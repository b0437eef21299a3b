"""``python -m repro.check KIND [OPTIONS] [--case K | --cases N | --stride S]
[--json] [--shrink]``: one subcommand per kind, built from its ``OPTIONS``.

Every failure prints the invocation that replays its case; with ``--json``
the digest is all of stdout, and the failures and the verdict go to
stderr.  Exit status is 0 when every case passes, 1 when one fails, and 2
on a usage error: a flag the kind does not take, or a run that would
check nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import KINDS, UsageError, check, kind_class, option


def _number_or_text(text: str):
    """The value of an option with no default: a number where it reads as one."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.check",
                                     description="Check one claim case by case.")
    commands = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        cls = kind_class(kind)
        sub = commands.add_parser(kind, help=cls.__doc__.splitlines()[0])
        for name, default in cls.OPTIONS.items():
            default, choices = option(default)
            sub.add_argument(
                "--" + name.replace("_", "-"), default=default,
                type=_number_or_text if default is None else type(default),
                choices=choices and [value for value in choices if value is not None],
            )
        select = sub.add_mutually_exclusive_group()
        select.add_argument("--case", type=int, help="run only case K (a reproducer)")
        if hasattr(cls, "census"):
            select.add_argument("--stride", type=int, default=1,
                                help="run every Nth census instant (smoke runs)")
        else:
            select.add_argument("--cases", type=int, default=20,
                                help="run cases 0 .. N-1")
        if hasattr(cls, "shrink"):
            sub.add_argument("--shrink", action="store_true",
                             help="on failure, print each failing case shrunk")
        sub.add_argument("--json", action="store_true", help="print the digest as JSON")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    options = vars(parser.parse_args(argv))
    kind, as_json, shrink = (options.pop(name, False) for name in ("kind", "json", "shrink"))
    try:
        report = check(kind, **options)
    except UsageError as error:
        parser.exit(2, f"{parser.prog} {kind}: error: {error}\n")
    digest = report.digest()
    if as_json:
        print(json.dumps(digest, indent=2, sort_keys=True))
    else:
        print(f"{kind}: " + " ".join(
            f"{name}={value}" for name, value in digest.items()
            if name not in ("kind", "ok")
        ))
    # with --json, stdout is the one JSON document and the verdict goes aside
    verdict = sys.stderr if as_json else sys.stdout
    for failure in report.failures:
        print(failure.describe(), file=verdict)
    cls = kind_class(kind)
    if report.ok:
        print(f"ok: {cls.__doc__.splitlines()[0].rstrip('.')} ({report.cases_run} cases)",
              file=verdict)
        return 0
    if shrink:
        runner = cls(**{name: options[name] for name in cls.OPTIONS})
        for case in sorted({failure.case for failure in report.failures}):
            print(f"\nshrunk reproducer:\n{runner.shrink(case)}", file=verdict)
    print(f"FAILED: {len(report.failures)} failures", file=verdict)
    return 1


if __name__ == "__main__":
    sys.exit(main())
