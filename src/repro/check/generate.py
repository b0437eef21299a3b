"""Seeded generation of random STDM instances and calculus queries.

Everything here is a pure function of ``(seed, case index)`` — the same
determinism contract as :class:`repro.faults.plan.FaultPlan` — so a
failing case prints its coordinates and nothing else needs saving.

The generated universe deliberately stays inside the semantics both
evaluation families define identically:

* each field has one fixed scalar type (mixed-type ordering comparisons
  would raise in the naive evaluator but rank-compare in a directory);
* an object occupies at most one member slot of a set at a time, so
  scans and index probes agree on multiplicity;
* reference fields may be rebound or nil'd, scalar fields are never
  bound to ``nil`` (ordering against ``nil`` is a type error);
* some fields start unbound, so paths genuinely produce no-value.

Within those rules the generator is adversarial: nested discriminators,
time-pinned path steps, ∃/∀ brackets over second collections, equality
join conjuncts between the two binders (exercising hash-join fusion and
index nested-loop joins), two-sided brackets on one path (exercising the
merged ``[lo, hi]`` index probe: proper, single-key, empty and
int-against-float brackets), runs of ``~=`` on one column (exercising
residual-filter fusion), directory creation *mid-history*
(exercising pre-build temporal fallbacks) and directory drops
(exercising plan-memo invalidation).
"""

from __future__ import annotations

import functools
import random
from typing import Any, Optional

from .spec import CaseSpec, CollectionSpec, QuerySpec

_INT_POOL = tuple(range(0, 55, 5))
_STR_POOL = ("ada", "bob", "cy", "dee", "eve", "fay", "gus")
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_VAR_NAMES = ("e", "d", "m")
#: queries per generated case (part of what a seed means)
QUERIES_PER_CASE = 3


def _rng_for(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def generate_case(seed: int, index: int) -> CaseSpec:
    """Build the ``index``-th case of ``seed``'s deterministic stream."""
    rng = _rng_for(seed, index)
    collections = _generate_collections(rng)
    n_epochs = rng.randint(2, 5)
    dir_events = _generate_dir_events(rng, collections, n_epochs)
    mutations = _generate_mutations(rng, collections, n_epochs, dir_events)
    queries = tuple(
        _generate_query(rng, collections, n_epochs, dir_events)
        for _ in range(QUERIES_PER_CASE)
    )
    return CaseSpec(
        seed=seed,
        index=index,
        n_epochs=n_epochs,
        collections=collections,
        mutations=mutations,
        dir_events=dir_events,
        queries=queries,
    )


# -- instances ---------------------------------------------------------------


def _generate_collections(rng: random.Random) -> tuple[CollectionSpec, ...]:
    count = rng.choice((1, 2, 2, 3))
    specs = []
    for cid in range(count):
        size = rng.randint(2, 6)
        fields: list[tuple[str, Any]] = [("i0", "int")]
        if rng.random() < 0.8:
            fields.append(("s0", "str"))
        if rng.random() < 0.5:
            fields.append(("i1", "int"))
        if count > 1 and rng.random() < 0.7:
            target = rng.choice([c for c in range(count) if c != cid])
            fields.append(("r0", ("ref", target)))
        initial_members = tuple(
            i for i in range(size) if rng.random() < 0.85
        )
        specs.append(
            CollectionSpec(
                cid=cid,
                size=size,
                fields=tuple(fields),
                initial_members=initial_members,
                initial_values=(),  # filled below, needs all pools sized
            )
        )
    # initial values may reference any pool, so fill them second
    filled = []
    for spec in specs:
        values = []
        for i in range(spec.size):
            for field, kind in spec.fields:
                if rng.random() < 0.15:
                    continue  # leave unbound: a genuine no-value source
                values.append((i, field, _field_value(rng, kind, specs)))
        filled.append(
            CollectionSpec(
                cid=spec.cid,
                size=spec.size,
                fields=spec.fields,
                initial_members=spec.initial_members,
                initial_values=tuple(values),
            )
        )
    return tuple(filled)


def _field_value(rng: random.Random, kind: Any, specs) -> Any:
    if kind == "int":
        return rng.choice(_INT_POOL)
    if kind == "str":
        return rng.choice(_STR_POOL)
    _tag, target = kind
    target_spec = specs[target]
    if rng.random() < 0.15:
        return None  # nil reference
    return ("obj", target, rng.randrange(target_spec.size))


def _generate_mutations(
    rng: random.Random, collections, n_epochs: int, dir_events=()
) -> tuple[tuple, ...]:
    mutations: list[tuple] = []
    for epoch in range(1, n_epochs + 1):
        for _ in range(rng.randint(0, 4)):
            spec = rng.choice(collections)
            obj = rng.randrange(spec.size)
            if rng.random() < 0.35:
                mutations.append(
                    ("member", epoch, spec.cid, obj, rng.random() < 0.5)
                )
            else:
                field, kind = rng.choice(spec.fields)
                value = _field_value(rng, kind, collections)
                mutations.append(("field", epoch, spec.cid, obj, field, value))
    # after a directory drop, churn its keyed field: exactly the window
    # where a stale cached plan would keep probing the dead directory
    for event in dir_events:
        if event[0] != "drop" or event[1] >= n_epochs:
            continue
        _kind, dropped, cid, path_text = event
        spec = collections[cid]
        fields = dict(spec.fields)
        field = path_text.split("!")[0]
        kind = fields.get(field)
        if kind is None or rng.random() < 0.3:
            continue
        for _ in range(rng.randint(1, 2)):
            mutations.append((
                "field", rng.randint(dropped + 1, n_epochs), cid,
                rng.randrange(spec.size), field,
                _field_value(rng, kind, collections),
            ))
    return tuple(mutations)


def _indexable_paths(spec: CollectionSpec, collections) -> list[str]:
    paths = []
    for field, kind in spec.fields:
        if kind in ("int", "str"):
            paths.append(field)
        elif isinstance(kind, tuple):
            target = collections[kind[1]]
            paths.extend(
                f"{field}!{inner}"
                for inner, inner_kind in target.fields
                if inner_kind in ("int", "str")
            )
            paths.append(field)  # index on the reference itself
    return paths


def _generate_dir_events(
    rng: random.Random, collections, n_epochs: int
) -> tuple[tuple, ...]:
    events: list[tuple] = []
    for _ in range(rng.choice((1, 1, 2))):
        if rng.random() < 0.15:
            continue
        spec = rng.choice(collections)
        paths = _indexable_paths(spec, collections)
        if not paths:
            continue
        path = rng.choice(paths)
        if any(e[2] == spec.cid and e[3] == path for e in events):
            continue  # one directory per (owner, path)
        created = rng.randint(0, n_epochs - 1)
        events.append(("create", created, spec.cid, path))
        if rng.random() < 0.35:
            dropped = rng.randint(created + 1, n_epochs)
            events.append(("drop", dropped, spec.cid, path))
    return tuple(sorted(events, key=lambda e: (e[1], e[0] == "drop", e[2])))


# -- queries -----------------------------------------------------------------


def _scalar_fields(spec: CollectionSpec) -> list[tuple[str, str]]:
    return [(f, k) for f, k in spec.fields if k in ("int", "str")]


def _paths_by_type(
    spec: CollectionSpec, collections
) -> list[tuple[tuple, str]]:
    """(path steps, value type) pairs reachable from a member of *spec*."""
    out: list[tuple[tuple, str]] = []
    for field, kind in spec.fields:
        if kind in ("int", "str"):
            out.append((((field, None),), kind))
        elif isinstance(kind, tuple):
            out.append((((field, None),), "ref"))
            target = collections[kind[1]]
            out.extend(
                (((field, None), (inner, None)), inner_kind)
                for inner, inner_kind in target.fields
                if inner_kind in ("int", "str")
            )
    return out


def _const_for(rng: random.Random, value_type: str, collections) -> tuple:
    if value_type == "int":
        return ("const", rng.choice(_INT_POOL))
    if value_type == "str":
        return ("const", rng.choice(_STR_POOL))
    spec = rng.choice(collections)
    if rng.random() < 0.2:
        return ("const", None)
    return ("obj", spec.cid, rng.randrange(spec.size))


def _maybe_pin(
    rng: random.Random, steps: tuple, max_epoch: int
) -> tuple:
    """Occasionally pin path steps to a past epoch (``a@T`` syntax)."""
    if rng.random() >= 0.2:
        return steps
    pinned = []
    for name, _at in steps:
        at = rng.randint(0, max_epoch) if rng.random() < 0.6 else None
        pinned.append((name, at))
    return tuple(pinned)


def _atom(
    rng: random.Random,
    var: str,
    spec: CollectionSpec,
    collections,
    max_epoch: int,
    other: Optional[tuple[str, CollectionSpec]] = None,
) -> Optional[tuple]:
    """One comparison over *var* (possibly against *other*'s variable)."""
    paths = _paths_by_type(spec, collections)
    if not paths:
        return None
    steps, value_type = rng.choice(paths)
    steps = _maybe_pin(rng, steps, max_epoch)
    left = ("path", ("var", var), steps)
    ops = ("==", "!=") if value_type == "ref" else _CMP_OPS
    op = rng.choice(ops)
    if other is not None and rng.random() < 0.4:
        other_var, other_spec = other
        candidates = [
            (s, t)
            for s, t in _paths_by_type(other_spec, collections)
            if t == value_type
        ]
        if candidates:
            o_steps, _ = rng.choice(candidates)
            right = ("path", ("var", other_var), _maybe_pin(rng, o_steps, max_epoch))
            return ("cmp", op, left, right)
    right = _const_for(rng, value_type, collections)
    if value_type == "int" and rng.random() < 0.15:
        right = ("binop", rng.choice(("+", "-")), right,
                 ("const", rng.choice((1, 2, 5))))
    return ("cmp", op, left, right)


def _quantifier(
    rng: random.Random,
    outer_var: str,
    outer_spec: CollectionSpec,
    collections,
    max_epoch: int,
) -> Optional[tuple]:
    inner_spec = rng.choice(collections)
    inner_var = "q"
    inner = _atom(
        rng, inner_var, inner_spec, collections, max_epoch,
        other=(outer_var, outer_spec),
    )
    if inner is None:
        return None
    kind = rng.choice(("exists", "forall"))
    return (kind, inner_var, ("coll", inner_spec.cid), inner)


def _directory_paths(
    spec: CollectionSpec, collections, dir_events
) -> list[tuple[tuple, Any]]:
    """(path steps, value type) of every directory created on *spec*."""
    out = []
    for event in dir_events:
        if event[0] != "create" or event[2] != spec.cid:
            continue
        names = event[3].split("!")
        value_type: Any = None
        fields = dict(spec.fields)
        for name in names:
            kind = fields.get(name)
            if isinstance(kind, tuple):
                value_type = "ref"
                fields = dict(collections[kind[1]].fields)
            else:
                value_type = kind
        out.append((tuple((name, None) for name in names), value_type))
    return out


def _directory_atom(
    rng: random.Random, var: str, spec: CollectionSpec, collections,
    dir_events,
) -> Optional[tuple]:
    """An atom over one of *spec*'s directory paths, in the exact
    ``var!path op const`` shape the optimizer matches — so generated
    queries actually exercise (and, across drops, invalidate) plans."""
    dir_paths = _directory_paths(spec, collections, dir_events)
    if not dir_paths:
        return None
    steps, value_type = rng.choice(dir_paths)
    ops = ("==", "!=") if value_type == "ref" else ("==", "==", "<=", ">")
    return ("cmp", rng.choice(ops), ("path", ("var", var), steps),
            _const_for(rng, value_type, collections))


_BRACKET_SHAPES = ("proper", "proper", "proper", "single", "empty", "mixed")
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def bracket_bounds(rng: random.Random, pool) -> tuple[str, Any, str, Any]:
    """``(low op, low, high op, high)`` bracketing values of sorted *pool*.

    Mostly a proper bracket; sometimes one holding a single key
    (``>= k``, ``<= k``), one nothing can lie in (inverted bounds, or
    one key with an exclusive side), or — over numbers — an int key
    bracketed by a float: another Python type in the same key rank.
    """
    low, high = sorted(rng.sample(pool, 2))
    low_op = rng.choice((">", ">="))
    high_op = rng.choice(("<", "<="))
    shape = rng.choice(_BRACKET_SHAPES)
    if shape == "single":
        return ">=", low, "<=", low
    if shape == "empty":
        if rng.random() < 0.5:
            return low_op, high, high_op, low
        return ">", low, high_op, low
    if shape == "mixed" and isinstance(high, int):
        return low_op, low, high_op, high + 0.5
    return low_op, low, high_op, high


def _bracket_atom(
    rng: random.Random, var: str, spec: CollectionSpec, collections,
    dir_events,
) -> Optional[tuple]:
    """Two opposite comparisons on one scalar path of *var* — a path
    with a directory when there is one, so the optimizer merges them
    into one two-sided probe while the unindexed paths filter twice."""
    candidates = [
        (steps, kind)
        for steps, kind in _directory_paths(spec, collections, dir_events)
        if kind in ("int", "str")
    ] or [(((field, None),), kind) for field, kind in _scalar_fields(spec)]
    if not candidates:
        return None
    steps, kind = rng.choice(candidates)
    pool = _INT_POOL if kind == "int" else _STR_POOL
    low_op, low, high_op, high = bracket_bounds(rng, pool)
    path = ("path", ("var", var), steps)
    sides = []
    for op, value in ((low_op, low), (high_op, high)):
        if rng.random() < 0.25:  # the mirrored spelling: `const op' path`
            sides.append(("cmp", _MIRRORED[op], ("const", value), path))
        else:
            sides.append(("cmp", op, path, ("const", value)))
    if rng.random() < 0.5:
        sides.reverse()
    return ("and", sides[0], sides[1])


def _residual_run(
    rng: random.Random, var: str, spec: CollectionSpec, collections,
    max_epoch: int,
) -> Optional[tuple]:
    """2–4 ``~=`` conjuncts on one path of *var*, or on *var* itself: the
    run ``optimize`` joins into one filter.  Constants may repeat, be Refs
    or have another type; another path's ``~=`` may break the run."""
    paths = _paths_by_type(spec, collections)
    if not paths:
        return None
    steps, value_type = rng.choice(paths)
    column = ("path", ("var", var), _maybe_pin(rng, steps, max_epoch))
    if rng.random() < 0.15:
        column, value_type = ("var", var), "ref"
    constants: list[tuple] = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("int", "str")) if rng.random() < 0.2 else value_type
        constant = _const_for(rng, kind, collections)
        constants.append(rng.choice(constants) if constants and rng.random() < 0.2
                         else constant)
    run = [  # some in the mirrored spelling, `const ~= column'
        ("cmp", "!=", column, c) if rng.random() < 0.8 else ("cmp", "!=", c, column)
        for c in constants
    ]
    if rng.random() < 0.3:
        steps, other_type = rng.choice(paths)
        run.insert(rng.randint(1, len(run) - 1), ("cmp", "!=", (
            "path", ("var", var), steps), _const_for(rng, other_type, collections)))
    return functools.reduce(lambda left, right: ("and", left, right), run)


def _join_atom(
    rng: random.Random,
    var: str,
    spec: CollectionSpec,
    other_var: str,
    other_spec: CollectionSpec,
    collections,
    max_epoch: int,
) -> Optional[tuple]:
    """An equality join conjunct ``var!p == other_var!p'`` over matching
    value types — exactly the shape join fusion rewrites into a
    :class:`~repro.stdm.algebra.HashJoin` (or an index nested-loop join
    when a directory covers ``var!p``)."""
    other_paths = _paths_by_type(other_spec, collections)
    pairs = [
        (steps, o_steps)
        for steps, value_type in _paths_by_type(spec, collections)
        for o_steps, other_type in other_paths
        if value_type == other_type
    ]
    if not pairs:
        return None
    steps, other_steps = rng.choice(pairs)
    left = ("path", ("var", var), _maybe_pin(rng, steps, max_epoch))
    right = ("path", ("var", other_var), _maybe_pin(rng, other_steps, max_epoch))
    if rng.random() < 0.5:
        left, right = right, left
    return ("cmp", "==", left, right)


def _generate_query(
    rng: random.Random, collections, n_epochs: int, dir_events=()
) -> QuerySpec:
    n_binders = 1 if len(collections) == 1 or rng.random() < 0.5 else 2
    binders = []
    binder_specs = []
    for b in range(n_binders):
        spec = rng.choice(collections)
        binders.append((_VAR_NAMES[b], ("coll", spec.cid)))
        binder_specs.append(spec)

    eval_epochs = tuple(sorted(rng.sample(
        range(n_epochs + 1), k=min(2, n_epochs + 1)
    )))
    max_epoch = eval_epochs[0]  # pins must be visible at every eval point
    at_epoch = rng.randint(0, max_epoch) if rng.random() < 0.3 else None

    atoms: list[tuple] = []
    if rng.random() < 0.5:
        indexed = _directory_atom(
            rng, _VAR_NAMES[0], binder_specs[0], collections, dir_events
        )
        if indexed is not None:
            atoms.append(indexed)
    if rng.random() < 0.3:
        bracket = _bracket_atom(
            rng, _VAR_NAMES[0], binder_specs[0], collections, dir_events
        )
        if bracket is not None:
            atoms.append(bracket)
    if rng.random() < 0.35:
        run = _residual_run(
            rng, _VAR_NAMES[0], binder_specs[0], collections, max_epoch
        )
        if run is not None:
            atoms.append(run)
    for b, spec in enumerate(binder_specs):
        var = _VAR_NAMES[b]
        # favor the indexable shape the optimizer looks for: var!path op const
        for _ in range(rng.choice((1, 1, 2))):
            other = None
            if b > 0 and rng.random() < 0.5:
                other = (_VAR_NAMES[0], binder_specs[0])
            atom = _atom(rng, var, spec, collections, max_epoch, other)
            if atom is not None:
                atoms.append(atom)
    if n_binders == 2 and rng.random() < 0.6:
        join = _join_atom(
            rng, _VAR_NAMES[1], binder_specs[1],
            _VAR_NAMES[0], binder_specs[0], collections, max_epoch,
        )
        if join is not None:
            atoms.append(join)
    if rng.random() < 0.35:
        quantified = _quantifier(
            rng, _VAR_NAMES[0], binder_specs[0], collections, max_epoch
        )
        if quantified is not None:
            atoms.append(quantified)
    condition: Optional[tuple] = None
    for atom in atoms:
        if rng.random() < 0.12:
            atom = ("not", atom)
        if condition is None:
            condition = atom
        else:
            condition = (rng.choice(("and", "and", "or")), condition, atom)

    result = _generate_result(rng, binder_specs, collections, max_epoch)
    return QuerySpec(
        binders=tuple(binders),
        condition=condition,
        result=result,
        at_epoch=at_epoch,
        eval_epochs=eval_epochs,
    )


def _generate_result(
    rng: random.Random, binder_specs, collections, max_epoch: int
) -> tuple:
    var = _VAR_NAMES[0]
    spec = binder_specs[0]
    choice = rng.random()
    if choice < 0.3:
        return ("var", var)
    paths = _paths_by_type(spec, collections)
    if not paths:
        return ("var", var)
    steps, _type = rng.choice(paths)
    single = ("path", ("var", var), _maybe_pin(rng, steps, max_epoch))
    if choice < 0.8 or len(paths) < 2:
        return single
    other_steps, _t = rng.choice(paths)
    return ("record", (
        ("a", single),
        ("b", ("path", ("var", var), other_steps)),
    ))
