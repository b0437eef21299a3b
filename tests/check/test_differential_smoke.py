"""Tier-1 differential smoke: hundreds of generated queries, four ways.

The committed seed range must stay green: every generated query returns
identical rows from the naive reference evaluator, an uncached algebra
translation, a warm plan-memo, and a fresh index-aware optimization.
"""

from repro.check import check, generate_case
from repro.obs import MetricsRegistry

#: the committed smoke seed — changing it invalidates the claim below
SMOKE_SEED = 2026
SMOKE_CASES = 200


def test_smoke_seed_range_has_zero_mismatches():
    report = check("differential", seed=SMOKE_SEED, cases=SMOKE_CASES)
    assert report.ok, report.failures[0].describe()
    counts = report.counts
    # the acceptance bar: hundreds of queries, each evaluated at least
    # twice (eval epochs), each time across all four paths
    assert counts["queries"] >= 200
    assert counts["evaluations"] >= 2 * counts["queries"]
    assert counts["cases"] == SMOKE_CASES


def test_memo_path_actually_hits():
    report = check("differential", seed=SMOKE_SEED, cases=50)
    assert report.ok
    # queries re-evaluated at a later epoch with no directory churn in
    # between must be served from the memo, not re-planned
    assert report.counts["memo_hits"] > 0
    assert report.counts["memo_misses"] > 0


def test_generation_is_deterministic():
    assert generate_case(SMOKE_SEED, 7) == generate_case(SMOKE_SEED, 7)
    assert generate_case(SMOKE_SEED, 7) != generate_case(SMOKE_SEED, 8)
    assert generate_case(SMOKE_SEED, 7) != generate_case(SMOKE_SEED + 1, 7)


def test_oracle_counters_reach_the_registry():
    registry = MetricsRegistry()
    report = check("differential", seed=SMOKE_SEED, cases=10, registry=registry)
    counters = registry.snapshot()["counters"]
    assert counters["check.diff.cases"] == report.counts["cases"] == 10
    assert counters["check.diff.evaluations"] == report.counts["evaluations"]
    assert counters["check.diff.queries"] == report.counts["queries"]
    assert "check.diff.mismatches" not in counters  # clean run


def test_generated_universe_exercises_the_interesting_shapes():
    """The stream must contain quantifiers, pins, drops, records, every
    kind of two-sided bracket and runs of ``~=`` on one column, whole and
    broken by another path."""
    has = {"exists_or_forall": False, "pins": False, "drop": False,
           "record": False, "two_binders": False,
           "proper_bracket": False, "single_key_bracket": False,
           "empty_bracket": False, "int_float_bracket": False,
           "bracket_on_a_directory_path": False,
           "residual_run": False, "residual_run_on_the_variable": False,
           "interleaved_run": False}

    def residual_run(node):
        """Classify a chain of ``and`` holding adjacent ``~=`` on one column."""
        if node[0] != "and":
            return
        chain, stack = [], [node]
        while stack:
            item = stack.pop()
            if item[0] == "and":
                stack += [item[2], item[1]]
            else:
                chain.append(item)
        columns = [
            (item[2] if item[3][0] in ("const", "obj") else item[3])
            if item[0] == "cmp" and item[1] == "!=" else None
            for item in chain
        ]
        for a, b in zip(columns, columns[1:]):
            if a is not None and a == b:
                has["residual_run"] = True
                has["residual_run_on_the_variable"] |= a[0] == "var"
        for a, b, c in zip(columns, columns[1:], columns[2:]):
            if a is not None and a == c and b is not None and b != a:
                has["interleaved_run"] = True

    def bracket(node, dir_paths):
        """Classify ``(and, cmp, cmp)`` bounding one path from both sides."""
        if node[0] != "and" or node[1][0] != "cmp" or node[2][0] != "cmp":
            return
        bounds = {}
        for _cmp, op, left, right in node[1:]:
            if left[0] == "const":  # mirrored spelling: `const op path`
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op)
                left, right = right, left
            if left[0] != "path" or right[0] != "const" or op is None:
                return
            bounds[op in (">", ">=")] = (op, left, right[1])
        if len(bounds) != 2 or bounds[True][1] != bounds[False][1]:
            return
        (low_op, path, low), (high_op, _path, high) = bounds[True], bounds[False]
        if low > high or (low == high and (low_op, high_op) != (">=", "<=")):
            has["empty_bracket"] = True
        elif low == high:
            has["single_key_bracket"] = True
        elif type(low) is not type(high):
            has["int_float_bracket"] = True
        else:
            has["proper_bracket"] = True
        if "!".join(name for name, _at in path[2]) in dir_paths:
            has["bracket_on_a_directory_path"] = True

    def walk(node, dir_paths):
        if not isinstance(node, tuple) or not node:
            return
        bracket(node, dir_paths)
        residual_run(node)
        if node[0] in ("exists", "forall"):
            has["exists_or_forall"] = True
        if node[0] == "path":
            if any(at is not None for _name, at in node[2]):
                has["pins"] = True
        for child in node[1:]:
            if isinstance(child, tuple):
                walk(child, dir_paths)

    for index in range(60):
        spec = generate_case(SMOKE_SEED, index)
        if any(e[0] == "drop" for e in spec.dir_events):
            has["drop"] = True
        for query in spec.queries:
            if len(query.binders) > 1:
                has["two_binders"] = True
            if query.result[0] == "record":
                has["record"] = True
            if query.condition is not None:
                cid = query.binders[0][1][1]
                walk(query.condition, {
                    e[3] for e in spec.dir_events
                    if e[0] == "create" and e[2] == cid
                })
    missing = [k for k, v in has.items() if not v]
    assert not missing, f"generator never produced: {missing}"
