"""The Transaction Manager is the only writer of the stable store.

Every durable group goes through its one apply path under the store's
lock, so no other code may persist or take a transaction time: a DBA
operation that called ``store.persist`` itself would run beside a
commit's group write.  ``StableStore`` persists for itself only to
format a platter and to compact it (both under the lock).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def calls_by_class(matches):
    """``{class name or None: [file:line, ...]}`` of every call *matches* accepts."""
    found: dict = {}

    def walk(node, owner, path):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            if isinstance(child, ast.Call) and matches(child.func):
                found.setdefault(owner, []).append(f"{path}:{child.lineno}")
            walk(child, inner, path)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), None, path.relative_to(SRC))
    return found


def is_persist(func) -> bool:
    return isinstance(func, ast.Attribute) and func.attr == "persist"


def is_clock_assign(func) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "assign"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "clock"
    )


def test_only_the_transaction_manager_and_the_store_persist():
    found = calls_by_class(is_persist)
    assert set(found) == {"TransactionManager", "StableStore"}, found


def test_only_the_transaction_manager_takes_a_transaction_time():
    found = calls_by_class(is_clock_assign)
    assert set(found) == {"TransactionManager"}, found
