"""Symbolic case specifications for the differential oracle.

A :class:`CaseSpec` is a *symbolic* description of one test case: the
collections and objects to build, the mutation history to replay, the
directory create/drop events, and the queries to run.  It references
objects by stable symbolic ids (``(collection, index)``) rather than
oids, so the same spec can be rebuilt from scratch any number of times
— which is exactly what the shrinker needs, and what makes a printed
seed a complete reproducer.

Expressions are plain nested tuples (the first element is the node
kind), so specs are hashable, ``repr``-stable, and trivially rewritten
by the shrinker:

=================  ==================================================
``("const", v)``   a literal (int, str, bool, or ``None``)
``("coll", c)``    the set object of collection *c*
``("obj", c, i)``  object *i* of collection *c*'s pool
``("var", n)``     a bound query variable
``("path", b, s)`` navigation: *s* is ``((field, at_epoch|None), …)``
``("cmp", op, l, r)``   comparison (``==, !=, <, <=, >, >=``)
``("binop", op, l, r)`` arithmetic (``+, -, *``)
``("and"|"or", l, r)``, ``("not", x)``
``("exists"|"forall", var, source, condition)``
=================  ==================================================

Time pins (``at_epoch``) and query evaluation points are expressed in
*epochs* — positions in the case's mutation history — and resolved to
absolute transaction times at materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional


@dataclass(frozen=True)
class CollectionSpec:
    """One labeled set plus the pool of objects that may populate it.

    ``fields`` maps field name → kind: ``"int"`` or ``"str"`` for
    scalars, or ``("ref", target_cid)`` for a reference into another
    collection's pool.  Object *i* of the pool occupies member slot
    ``m{i}`` of the set when present — one slot per object, so a member
    never appears under two aliases at once (the scan and index paths
    agree on multiplicity by construction).
    """

    cid: int
    size: int
    fields: tuple[tuple[str, Any], ...]
    #: pool indices that are members of the set in the initial state
    initial_members: tuple[int, ...]
    #: initial field values: ((obj_index, field, value_spec), ...);
    #: fields not listed start unbound (reads yield no-value)
    initial_values: tuple[tuple[int, str, Any], ...]


@dataclass(frozen=True)
class QuerySpec:
    """One symbolic calculus query plus when to evaluate it.

    ``at_epoch`` dials the whole query to a past epoch (``None`` =
    now); ``eval_epochs`` are the history positions at which the
    differential oracle runs it — evaluating the same query at two
    epochs is what exercises plan-memo invalidation between them.
    """

    binders: tuple[tuple[str, tuple], ...]
    condition: Optional[tuple]
    #: an expression spec, or ``("record", ((label, spec), ...))`` for
    #: a labeled (dict) result template
    result: tuple
    at_epoch: Optional[int]
    eval_epochs: tuple[int, ...]


@dataclass(frozen=True)
class CaseSpec:
    """A complete generated test case (see module docstring)."""

    seed: int
    index: int
    n_epochs: int
    collections: tuple[CollectionSpec, ...]
    #: ordered mutations: ("field", epoch, cid, obj, field, value_spec)
    #: or ("member", epoch, cid, obj, present: bool)
    mutations: tuple[tuple, ...]
    #: ordered events: ("create"|"drop", epoch, cid, path_text)
    dir_events: tuple[tuple, ...]
    queries: tuple[QuerySpec, ...]

    def collection(self, cid: int) -> CollectionSpec:
        for spec in self.collections:
            if spec.cid == cid:
                return spec
        raise KeyError(cid)

    def with_queries(self, queries: tuple[QuerySpec, ...]) -> "CaseSpec":
        return replace(self, queries=queries)

    def with_mutations(self, mutations: tuple[tuple, ...]) -> "CaseSpec":
        return replace(self, mutations=mutations)

    def with_dir_events(self, dir_events: tuple[tuple, ...]) -> "CaseSpec":
        return replace(self, dir_events=dir_events)

    def size_measure(self) -> int:
        """A monotone size the shrinker drives down."""
        return (
            len(self.mutations)
            + len(self.dir_events)
            + len(self.queries)
            + sum(c.size + len(c.initial_values) for c in self.collections)
            + sum(_spec_size(q) for q in self.queries)
        )


def _spec_size(query: QuerySpec) -> int:
    total = sum(_expr_size(source) for _var, source in query.binders)
    if query.condition is not None:
        total += _expr_size(query.condition)
    if query.result[0] == "record":
        total += sum(_expr_size(spec) for _label, spec in query.result[1])
    else:
        total += _expr_size(query.result)
    return total


def _expr_size(node: Any) -> int:
    if not isinstance(node, tuple):
        return 1
    return 1 + sum(
        _expr_size(child) for child in node[1:] if isinstance(child, tuple)
    )


def case_key(query: QuerySpec) -> str:
    """A deterministic memoization key for one query spec.

    The spec's ``repr`` is stable (tuples, strings, ints only), so it
    plays the role the compiled block's AST identity plays in the
    production plan memo (:mod:`repro.opal.declarative`).
    """
    return repr((query.binders, query.condition, query.result, query.at_epoch))


def describe_case(spec: CaseSpec) -> str:
    """A compact, human-readable dump of one (usually shrunk) case."""
    lines = [
        f"case seed={spec.seed} index={spec.index} epochs={spec.n_epochs}",
    ]
    for coll in spec.collections:
        fields = ", ".join(f"{name}:{kind}" for name, kind in coll.fields)
        lines.append(
            f"  collection {coll.cid}: {coll.size} objects [{fields}] "
            f"members={list(coll.initial_members)}"
        )
        for obj, fieldname, value in coll.initial_values:
            lines.append(f"    init ({coll.cid}.{obj}).{fieldname} = {value!r}")
    for mutation in spec.mutations:
        lines.append(f"  epoch {mutation[1]}: {mutation!r}")
    for event in spec.dir_events:
        lines.append(f"  epoch {event[1]}: {event[0]} directory {event[2]}!{event[3]}")
    for index, query in enumerate(spec.queries):
        lines.append(
            f"  query {index}: binders={query.binders!r} "
            f"where={query.condition!r} result={query.result!r} "
            f"at_epoch={query.at_epoch} eval_epochs={query.eval_epochs}"
        )
    return "\n".join(lines)
