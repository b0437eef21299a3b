"""What each pinned ``repro.check`` run observed, held exactly.

``pinned.json`` maps a ``python -m repro.check`` argv to the document
that command prints with ``--json``: its census size and hash, its
counts, its chained digest and its verdict.  A run that still passes
but observes something else (one more shed, another census, a count off
by one) fails here, naming the row and each field that moved.  To
refresh a row on purpose, run its command with ``--json``, paste the
document in, and say in CHANGES.md why it moved.
"""

import json
from pathlib import Path

import pytest

from repro.check.__main__ import main

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())
ABSENT = "(absent)"


@pytest.mark.parametrize("row", PINNED)
def test_a_pinned_run_observes_what_it_pinned(row, capsys):
    main([*row.split(), "--json"])
    document, pinned = json.loads(capsys.readouterr().out), PINNED[row]
    if document == pinned:
        return
    moved = [
        f"  {name}: pinned {pinned.get(name, ABSENT)!r}, now {document.get(name, ABSENT)!r}"
        for name in sorted(pinned.keys() | document.keys())
        if pinned.get(name, ABSENT) != document.get(name, ABSENT)
    ]
    pytest.fail("\n".join([
        f"python -m repro.check {row} --json", *moved,
        "new document:", json.dumps(document, indent=2, sort_keys=True),
    ]), pytrace=False)
