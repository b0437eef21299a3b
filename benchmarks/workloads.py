"""Workload generators shared by the experiment benchmarks.

Each generator builds a deterministic dataset shaped like the paper's
examples (the Acme fragment of section 5.1, the Figure 1 history, tree-
structured engineering data) scaled by parameters, so benches sweep
sizes while keeping the paper's structure.
"""

from __future__ import annotations

import random

from repro.core.history import MISSING
from repro.core.objects import GemObject
from repro.db import GemSession, GemStone


def acme_fragment(store, n_employees: int, n_departments: int,
                  seed: int = 84) -> tuple[GemObject, GemObject]:
    """A scaled section-5.1 database: (employees, departments) sets.

    Departments get budgets; employees get salaries, nested Name objects
    and 1-2 department memberships; roughly 1 in 10 employees earns more
    than 10% of a department budget, so the paper's query selects a
    stable fraction.
    """
    rng = random.Random(seed)
    departments = store.instantiate("Object")
    dept_names = []
    for index in range(n_departments):
        name = f"D{index}"
        dept_names.append(name)
        managers = store.instantiate("Object")
        for m in range(2):
            store.bind(managers, store.new_alias(), f"mgr-{index}-{m}")
        dept = store.instantiate(
            "Object",
            Name=name,
            Budget=rng.randrange(100_000, 300_000),
            Managers=managers,
        )
        store.bind(departments, store.new_alias(), dept)

    employees = store.instantiate("Object")
    for index in range(n_employees):
        name = store.instantiate(
            "Object", First=f"F{index}", Last=f"L{index}"
        )
        depts = store.instantiate("Object")
        for dept_name in rng.sample(dept_names, k=min(2, len(dept_names))):
            store.bind(depts, store.new_alias(), dept_name)
        salary = rng.randrange(15_000, 35_000)
        if index % 10 == 0:
            salary = rng.randrange(20_000, 40_000)
        employee = store.instantiate(
            "Object", Name=name, Salary=salary, Depts=depts
        )
        store.bind(employees, store.new_alias(), employee)
    return employees, departments


def figure1_database(db: GemStone) -> GemSession:
    """Replay the Figure 1 event script at exact times 2, 5, 8, 9."""
    session = db.login()
    session.execute("""
        | acme ayn |
        acme := Object new.  ayn := Object new.
        World!'Acme Corp' := acme.
        acme!1821 := ayn.
        ayn!name := 'Ayn Rand'.  ayn!city := 'Portland'
    """)
    assert session.commit() == 2
    session.execute("""
        | milton |
        milton := Object new.
        milton!name := 'Milton Friedman'.  milton!city := 'Seattle'.
        World!'Acme Corp'!president := World!'Acme Corp'!1821.
        World!milton := milton
    """)
    db.transaction_manager.clock.advance_to(4)
    assert session.commit() == 5
    session.execute("""
        World!'Acme Corp'!president := World!milton.
        World!milton!city := 'Portland'.
        (World!'Acme Corp') removeKey: 1821
    """)
    db.transaction_manager.clock.advance_to(7)
    assert session.commit() == 8
    session.execute(
        "(World!'Acme Corp'!president @ 7) at: 'city' put: 'San Diego'"
    )
    assert session.commit() == 9
    return session


def employee_database(db: GemStone, count: int, seed: int = 7) -> GemObject:
    """Commit *count* Employee objects under ``World!employees``."""
    rng = random.Random(seed)
    session = db.login()
    if not session.session.has_class("Employee"):
        session.execute(
            "Object subclass: #Employee instVarNames: #(name salary)"
        )
    emps = session.new("Bag")
    for index in range(count):
        employee = session.new(
            "Employee", name=f"emp{index}", salary=rng.randrange(10_000, 100_000)
        )
        session.session.bind(emps, session.session.new_alias(), employee)
    session.assign("employees", emps)
    session.commit()
    session.close()
    return db.store.object(emps.oid)  # the canonical committed instance


def tree_database(db: GemStone, depth: int, fanout: int,
                  payload: int = 48) -> GemObject:
    """A strict tree committed in one transaction (clusters naturally)."""
    session = db.login()

    def grow(node, level: int) -> None:
        if level == depth:
            return
        for index in range(fanout):
            child = session.new("Object", payload="x" * payload)
            session.session.bind(node, f"c{index}", child)
            grow(child, level + 1)

    root = session.new("Object", payload="x" * payload)
    grow(root, 0)
    session.assign("tree", root)
    session.commit()
    session.close()
    return db.store.object(root.oid)


def scattered_tree_database(db: GemStone, depth: int, fanout: int,
                            payload: int = 48, seed: int = 3) -> GemObject:
    """The same tree, but committed one node per transaction in a
    shuffled order, defeating the Linker's parent-first clustering."""
    rng = random.Random(seed)
    session = db.login()
    root = session.new("Object", payload="x" * payload)
    session.assign("tree", root)
    session.commit()

    nodes_by_level: list[list[GemObject]] = [[root]]
    for _level in range(depth):
        next_level: list[GemObject] = []
        for node in nodes_by_level[-1]:
            for index in range(fanout):
                child = session.new("Object", payload="x" * payload)
                session.session.bind(node, f"c{index}", child)
                session.commit()  # one node per commit: no co-packing
                next_level.append(child)
        rng.shuffle(next_level)  # and no level-order locality either
        nodes_by_level.append(next_level)
    session.close()
    return db.store.object(root.oid)


def traverse_tree(store, root: GemObject, fanout: int) -> int:
    """Depth-first traversal touching every payload; returns node count."""
    count = 0
    stack = [root]
    while stack:
        node = store.deref(stack.pop())
        store.value_at(node, "payload")
        count += 1
        for index in range(fanout):
            child = store.value_at(node, f"c{index}")
            if child is not MISSING and child is not None:
                stack.append(child)
    return count


def history_churn(db: GemStone, updates: int) -> GemObject:
    """One object whose ``value`` element is updated *updates* times,
    one commit each — the no-deletion growth workload."""
    session = db.login()
    obj = session.new("Object", value=0)
    session.assign("churned", obj)
    session.commit()
    for index in range(updates):
        session.session.bind(obj.oid, "value", index + 1)
        session.commit()
    session.close()
    return obj
