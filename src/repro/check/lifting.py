"""The lifting oracle: one compiled block per *shape* answers like one per text.

``OpalEngine`` keys compiled blocks on the shape of a text — its tokens
with the literals lifted out (:mod:`repro.opal.lexer`) — so one block,
one calculus translation and one plan serve every literal a host puts
in the same places.  This oracle checks that nothing a caller can
observe tells the difference.  Every generated select, and every row of
a hand-written edge table, runs three ways against one database:

``unlifted``
    a session with ``perf.enabled = False``: the text is compiled as it
    was written, literals and all — the oracle;
``cold``
    a session that has never seen the shape: the text is lifted,
    compiled, translated and planned for these literals;
``warm``
    a session that has just run *the same shape with other literals*:
    the text is served the block, translation and plan built for those.

All three must give the same members (or raise the same error), and
report the same thing to the slow-query log: the same source text, the
same plan — the ``explain`` lines, with this execution's literals in
them — and the same candidate and result counts.  A warm run that was
meant to hit the compiled-block cache and did not is itself a failure:
the oracle would be comparing nothing.  So is one of a text that lifts
only strings and digit-written ints and shares its sibling's skeleton,
unless the sibling left that skeleton admitted (``skeleton_hits``).

The generated selects draw two-sided brackets from
:func:`~repro.check.generate.bracket_bounds` (proper, single-key,
empty, int bracketed by a float) over an indexed and an unindexed
collection of the same members (a sibling mostly over its text's),
some of which have ``n`` nil or unbound; the edge table adds what a
generator would rarely place: a string bound on a numeric directory,
``x > -5`` beside ``x -5``, one literal in two places, a time pin and
a literal array (both stay in the shape), a block kept in a workspace
variable across later texts of its own shape, and what a skeleton must
cut or leave to the scan (a sign, a float, a radix, strings holding
digits, ``!`` or ``[``, ``x = 5`` and ``x = '5'``).
Failures print ``python -m repro.check lifting --seed N --case K``
reproducers, like every other kind of the harness.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..db import GemStone
from ..opal.interpreter import skeleton
from ..opal.lexer import Lexer
from .generate import bracket_bounds

WAYS = ("unlifted", "cold", "warm")

_NUMBERS = tuple(range(0, 55, 5))
_NAMES = ("ada", "bob", "cy", "dee", "eve", "fay", "it''s")
_COLLECTIONS = ("indexed", "scanned")

#: what the slow-query log says about one run that must not depend on
#: how the block was come by (provenance and timing may)
_REPORTED = ("source", "plan", "candidates", "result_count", "negate",
             "outcome")

Shape = Callable[[random.Random, str], str]


def _generated_shapes(pinned: int) -> list[Shape]:
    """Select texts as functions of a literal draw and a collection: one
    shape each (apart from an int turned float), so a second draw is a
    sibling."""

    def number(rng):
        return rng.choice(_NUMBERS)

    def name(rng):
        return rng.choice(_NAMES)

    def bracket(rng):
        low_op, low, high_op, high = bracket_bounds(rng, _NUMBERS)
        return f"(e!n {low_op} {low}) & (e!n {high_op} {high})"

    return [
        lambda r, b: f"{b} select: [:e | {bracket(r)}]",
        lambda r, b: f"{b} reject: [:e | {bracket(r)}]",
        lambda r, b: f"{b} select: [:e | e!n > {number(r)}]",
        lambda r, b: f"{b} select: [:e | e!n = {number(r)}]",
        lambda r, b: f"{b} select: [:e | {number(r)} <= e!n]",
        lambda r, b: f"{b} detect: [:e | e!n = {number(r)}]",
        lambda r, b: f"{b} select: [:e | (e!name = '{name(r)}') "
                     f"| (e!name = '{name(r)}')]",
        lambda r, b: f"{b} select: [:e | {bracket(r)} "
                     f"& (e!n ~= {number(r)}) & (e!name ~= '{name(r)}')]",
        lambda r, b: f"{b} select: [:e | e!n * {number(r)} > {number(r)}]",
        lambda r, b: f"{b} select: [:e | e!n + {number(r)} "
                     f"< ({number(r)} * {number(r)})]",
        lambda r, b: f"{b} select: "
                     f"[:e | e!n between: {number(r)} and: {number(r)}]",
        lambda r, b: f"{b} select: "
                     f"[:e | (e!n > {number(r)}) and: [e!name ~= '{name(r)}']]",
        lambda r, b: f"{b} select: "
                     f"[:e | #({number(r)} 20) includes: e!n]",
        lambda r, b: f"{b} select: [:e | e!n@{pinned} >= {number(r)}]",
        lambda r, b: f"{b} select: "
                     f"[:e | e!n notNil and: [e!n > {number(r)}]]",
        # not declarative: the block runs member by member
        lambda r, b: f"{b} select: [:e | | t | t := e!n. "
                     f"t notNil and: [t > {number(r)}]]",
        lambda r, b: f"{b} select: "
                     f"[:e | (e!name , '{name(r)}') size > {number(r) // 5}]",
    ]


#: (block, the same shape with other literals) of ``{bag} select: […]``
#: — what a generator would rarely place
_BLOCKS = [
    # int and float bounds of one bracket, either way round
    ("(e!n >= 10) & (e!n < 30.5)", "(e!n >= 20) & (e!n < 45.5)"),
    ("(e!n >= 9.5) & (e!n < 30)", "(e!n >= 0.5) & (e!n < 10)"),
    # a bound the numeric directory cannot key
    ("e!n > 'abc'", "e!n > 'z'"),
    ("(e!n > 5) & (e!n < 'abc')", "(e!n > 0) & (e!n < 'z')"),
    # an empty bracket: inverted, and one key with an exclusive side
    ("(e!n >= 40) & (e!n <= 10)", "(e!n >= 10) & (e!n <= 40)"),
    ("(e!n > 20) & (e!n <= 20)", "(e!n > 10) & (e!n <= 35)"),
    # the sign of a number against the minus of a subtraction
    ("e!n > -5", "e!n > 5"),
    ("e!n -5 > 0", "e!n -20 > 5"),
    ("e!n - -5 > 30", "e!n - 5 > 30"),
    # a path that is nil on some members and unbound on others
    ("e!n isNil", "e!n isNil"),
    ("e!n < 15", "e!n < 50"),
    # one literal in two places is two slots, not one
    ("(e!n >= 20) & (e!n <= 20)", "(e!n >= 10) & (e!n <= 40)"),
    ("(e!name = 'ada') | (e!name = 'ada')", "(e!name = 'bob') | (e!name = 'cy')"),
    # what stays in the shape: a time pin, a literal array
    ("e!n@{pinned} > 20", "e!n@{pinned} > 40"),
    ("e!n@({pinned}) > 20", "e!n@({pinned}) > 40"),
    ("#(10 20) includes: e!n", "#(10 20) includes: e!n"),
    ("(#(10 20) includes: e!n) & (e!n > 10)", "(#(10 20) includes: e!n) & (e!n > 15)"),
    # strings with a quote in them, and the empty string
    ("e!name = 'it''s'", "e!name = 'ada'"),
    ("e!name > ''", "e!name > 'c'"),
    # what a skeleton cuts: an int and a string in one place (one warm
    # session sees both), strings holding what a cut looks for
    ("e!n = 5", "e!n = 7"),
    ("e!n = '5'", "e!n = '7'"),
    ("e!name ~= 'a1'", "e!name ~= '22'"),
    ("e!name ~= '!n'", "e!name ~= '['"),
    # a cut that is not one lifted token: a sign, a float, a radix, `1 e5`
    ("e!n > -5", "e!n > -20"),
    ("e!n > (30 - -1)", "e!n > (3 - -10)"),
    ("e!n > 10.5", "e!n > 25.5"),
    ("e!n < 16r1F", "e!n < 16r2A"),
    ("e!n < 1e5", "e!n < 2e5"),
    # what only a scan reads: comments, a character
    ('"5" e!n > 5', 'e!n > 15 "x"'),
    ("(e!name includes: $') | (e!n > 5)", "(e!name includes: $') | (e!n > 15)"),
]

#: (text, the same shape with other literals); ``{bag}`` is each
#: collection in turn
_EDGES = [
    *((f"{{bag}} select: [:e | {block}]", f"{{bag}} select: [:e | {sibling}]")
      for block, sibling in _BLOCKS),
    ("{bag} reject: [:e | e!n = nil]", "{bag} reject: [:e | e!n = nil]"),
    # a path name, a path digit; blanks; a non-ASCII name
    ("(World!indexed) size", "(World!scanned) size"),
    ("(World!3) isNil", "(World!4) isNil"),
    ("(World!k1) isNil", "(World!k22) isNil"),
    ("(World!indexed) size + '[7' size", "(World!scanned) size + '' size"),
    ("{bag} select: [:e | e!n > 5]", "{bag}  select:[:e|e!n>15 ]"),
    ("| é | é := 5. ({bag} select: [:e | e!n > é]) size",
     "| é | é := 15. ({bag} select: [:e | e!n > é]) size"),
]


def _plain(text: str) -> bool:
    """Whether *text* lifts only strings and digit-written ints."""
    literals = Lexer(text).literals
    return all(type(v) is str or type(v) is int and v >= 0 for v in literals)


def _load(database: GemStone, rng: random.Random) -> int:
    """Two bags of the same members, one indexed on ``n``; a second
    commit moves some ``n``.  Returns the time of the first commit."""
    with database.login() as loader:
        loader.execute(
            "World!indexed := Bag new. World!scanned := Bag new"
        )
        for _ in range(rng.randrange(12, 30)):
            n = rng.choice([*_NUMBERS, *_NUMBERS, "nil", None])
            bind_n = "" if n is None else f"o!n := {n}. "
            loader.execute(
                f"| o | o := Object new. {bind_n}"
                f"o!name := '{rng.choice(_NAMES)}'. "
                "World!indexed add: o. World!scanned add: o"
            )
        pinned = loader.commit()
        loader.execute("System index: (World!indexed) on: 'n'")
        loader.execute(
            "World!indexed do: [:o | (o!n notNil and: [o!n > 25]) "
            "ifTrue: [o!n := o!n - 20]]"
        )
        loader.commit()
    return pinned


class _ThreeWays:
    """One database, one session per way."""

    def __init__(self, database: GemStone) -> None:
        self.database = database
        self.sessions = {way: database.login() for way in WAYS}
        self.sessions["unlifted"].session.perf.enabled = False

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()

    def observe(self, way: str, text: str, bindings=None) -> dict[str, Any]:
        """Run *text* one way: its value as plain data, and what the
        slow-query log was told."""
        session = self.sessions[way]
        log = self.database.obs.slow_queries
        log.clear()
        try:
            value = session.execute(text, bindings)
        except Exception as error:  # whatever it is, all three must raise it
            observed: dict[str, Any] = {
                "raised": f"{type(error).__name__}: {error}"
            }
        else:
            observed = {"value": self._plain(session, value)}
        observed["logged"] = [
            {key: entry.get(key) for key in _REPORTED}
            for entry in log.slowest()
        ]
        return observed

    @staticmethod
    def _plain(session, value: Any) -> Any:
        oid = getattr(value, "oid", None)
        if oid is None:
            return value
        store = session.session
        if store.class_of(value).name != "Bag":
            return ("oid", oid)
        # a select's result is a new bag: compare what it holds
        return sorted(member.oid for member in store.members_of(value, None))

    def compare(
        self, text: str, sibling: str
    ) -> tuple[list[tuple[str, str]], bool, bool, bool]:
        """*text* all three ways — warm after *sibling*; the differences
        found, whether the warm run hit the compiled-block cache, whether
        the two share a skeleton, and whether the sibling left it admitted."""
        warm = self.sessions["warm"]
        cold = self.sessions["cold"]
        cold.session.perf.compile_entries.clear()
        try:
            warm.execute(sibling)
        except Exception:
            pass  # only here to warm the shape; its answer is not the point
        perf = warm.session.perf
        hits, (_, cut) = perf.compile_hits, skeleton(text)
        shared = cut is not None and cut == skeleton(sibling)[1]
        served = shared and perf.compile_skeletons.get(cut) is not None
        seen = {way: self.observe(way, text) for way in WAYS}
        hit = perf.compile_hits == hits + 1
        what = f"{text!r} (warm after {sibling!r})"
        return _differences(seen, what), hit, shared, served


def _differences(seen: dict[str, Any], what: str) -> list[tuple[str, str]]:
    """One ``(what, detail)`` per lifted way whose observations are not
    the oracle's."""
    return [
        (f"{way} differs from unlifted on {what}",
         f"unlifted: {seen['unlifted']!r}\n{way:>8}: {seen[way]!r}")
        for way in WAYS[1:] if seen[way] != seen["unlifted"]
    ]


def _kept_block(ways: _ThreeWays, bag: str) -> list[tuple[str, str]]:
    """A block in a workspace variable keeps the literals of the text
    that made it: through a text of another shape that invokes it, and
    through a later text of *its own* shape with other literals."""
    seen = {}
    for way in WAYS:
        session = ways.sessions[way]
        kept = session.execute("[:e | (e!n > 10) & (e!name ~= 'ada')]")
        use = f"({bag} select: kept) size"
        first = ways.observe(way, use, {"kept": kept})
        other = session.execute("[:e | (e!n > 40) & (e!name ~= 'bob')]")
        seen[way] = [
            first,
            ways.observe(way, use, {"kept": kept}),
            ways.observe(way, use, {"kept": other}),
            ways.observe(way, f"{bag} select: [:e | (e!n > 0) & (e!name ~= 'cy')]"),
            ways.observe(way, use, {"kept": kept}),
        ]
        if seen[way][0] != seen[way][1] or seen[way][0] != seen[way][4]:
            return [(f"{way}: a kept block changed its answer over {bag}",
                     repr(seen[way]))]
    return _differences(seen, f"a kept block over {bag}")


class Lifting:
    """Every select agrees unlifted, lifted cold and lifted warm."""

    OPTIONS = {"seed": 2026}
    COUNTS = ("selects", "warm_hits", "skeleton_hits")
    PREFIX, FAILED = "lifting", "problems"
    #: generated selects per case, beside the whole edge table
    SELECTS = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def run(self, case: int, fail, counts: dict) -> None:
        """One seeded database; generated texts and the whole edge table,
        each compared three ways."""
        rng = random.Random(f"lifting.{self.seed}.{case}")
        database = GemStone.create()
        pinned = _load(database, rng)
        ways = _ThreeWays(database)
        shapes = _generated_shapes(pinned)
        pairs: list[tuple[str, str, bool]] = []
        for _ in range(self.SELECTS):
            shape = rng.choice(shapes)
            bag = rng.choice(_COLLECTIONS)
            text = shape(rng, f"World!{bag}")
            wanted = Lexer(text).shape
            # mostly the text's collection, whose name stays in the
            # skeleton; one pair in four draws again (the shape path)
            if rng.random() < 0.25:
                bag = rng.choice(_COLLECTIONS)
            for _ in range(20):  # a sibling: the same shape, other literals
                sibling = shape(rng, f"World!{bag}")
                same_shape = Lexer(sibling).shape == wanted
                if same_shape and sibling != text:
                    break
            pairs.append((text, sibling, same_shape))
        for text, sibling in _EDGES:
            for bag in _COLLECTIONS:
                places = {"bag": f"World!{bag}", "pinned": pinned}
                pairs.append(
                    (text.format(**places), sibling.format(**places), True)
                )
        try:
            for text, sibling, same_shape in pairs:
                problems, hit, shared, served = ways.compare(text, sibling)
                counts["selects"] += 1
                counts["warm_hits"] += hit
                counts["skeleton_hits"] += served
                if same_shape and not hit:
                    problems.append((
                        f"warm run of {text!r} after {sibling!r} missed the "
                        "compiled-block cache: nothing was compared", "",
                    ))
                elif hit and shared and not served and _plain(text):
                    problems.append((
                        f"warm run of {text!r} after {sibling!r} was not "
                        "served by its skeleton: it was scanned", "",
                    ))
                for problem in problems:
                    fail(*problem)
            for bag in _COLLECTIONS:
                for problem in _kept_block(ways, f"World!{bag}"):
                    fail(*problem)
        finally:
            ways.close()
