"""The scanner against the lexer it replaced: zero differences.

``repro.opal.lexer`` is one master pattern; ``reference_lexer`` is the
per-character loop it replaced, frozen.  For any string at all — OPAL or
not — both must give the same ``(type, value, line, column)`` for every
token, or the same ``(message, line, column)`` of the same
:class:`LexError`.  The strings: everything quoted in ``tests/``,
``examples/`` and ``docs/``, the benchmark's five request shapes, and
seeded random strings over an alphabet that reaches every rule.
"""

import ast
import pathlib
import random

import pytest

from repro.errors import LexError
from repro.opal.lexer import Lexer

from .reference_lexer import Lexer as ReferenceLexer

ROOT = pathlib.Path(__file__).parent.parent.parent


def outcome(lexer, source):
    try:
        return [
            (token.type, token.value, token.line, token.column)
            for token in lexer(source).tokens()
        ]
    except LexError as error:
        return ("LexError", str(error), error.line, error.column)


def assert_same(source):
    assert outcome(Lexer, source) == outcome(ReferenceLexer, source), source


def quoted_in_python(path):
    """Every string constant of a module (f-string pieces included)."""
    tree = ast.parse(path.read_text())
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def quoted_in_markdown(path):
    """Every fenced block, every line, every `code span`."""
    text = path.read_text()
    pieces = text.split("```")[1::2] + text.splitlines()
    for line in text.splitlines():
        pieces.extend(line.split("`")[1::2])
    return pieces


def test_every_string_in_tests_examples_and_docs():
    sources = []
    for directory in ("tests", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            sources.extend(quoted_in_python(path))
    for path in sorted((ROOT / "docs").glob("*.md")):
        sources.extend(quoted_in_markdown(path))
    assert len(sources) > 5000
    for source in sources:
        assert_same(source)


def test_the_five_benchmark_shapes():
    rng = random.Random(2026)
    for _ in range(200):
        lo = rng.randrange(48_000, 52_000)
        names = [f"emp{rng.randrange(4200):04d}" for _ in range(3)]
        conjuncts = [f"(e!salary >= {lo})", f"(e!salary < {lo + 1500})"]
        conjuncts += [
            f"(e!salary ~= {rng.randrange(lo, lo + 1500)})" for _ in range(4)
        ]
        conjuncts += [f"(e!name ~= '{name}')" for name in names[:2]]
        disjuncts = " | ".join(f"(e!name = '{name}')" for name in names)
        key = f"k{rng.randrange(2000):04d}"
        for source in (
            f"World!{key}",
            f"World!{key} := {rng.randrange(100_000, 1_000_000)}",
            f"(World!employees select: [:e | {' & '.join(conjuncts)}]) size",
            f"(World!employees select: [:e | {disjuncts}]) size",
            "(World!employees select: "
            f"[:e | e!salary > {rng.randrange(88_000, 89_500)}]) size",
        ):
            assert_same(source)


#: each one a place where the two lexers could part ways
EDGES = [
    "'abc", "'abc''", "'''", "''''", "'a''b'", "'' '", "#'q", "#'q''",
    '"never closed', 'a "c" b', 'x "multi\nline" y', "'multi\nline' z\n  w",
    "16rFF", "99rX", "12r", "-12r", "x -12r", "1r5", "36rZZ", "37rZZ",
    "16rG", "-16rFF", "2r", "007r12", "1.5r3", "1e5", "1.5e5", "1.5e-5",
    "1.5e-", "1.5e", "1.", "1.x", "3.5.7",
    "3-5", "3 - 5", "3 -5", "3 - -5", "3--5", "x-5", "(-5)", ")-5", "]-5",
    "#foo -5", "$a-5", "'s'-5", "kw: -5", ":= -5", "^-5", ".-5", "[-5",
    "|-5", "| -5", "+-5", "<-5", "!-5", "@-5", "x!a -5", "-", "- 5", "-x",
    "||", "|", "|=", "| |", "|||", "a | b", "a || b", "|+|", "#|", "#||",
    "#foo:bar:", "#foo:bar", "#foo::bar", "#a:=", "#'q'", "#'q''r'", "#+",
    "#+-", "#+-*", "#(", "#(1 #(2))", "#", "# foo", "#1", "#²", "#_a", "##",
    ":=", ":", "kw:", "kw:=", "kw: =", "a:b", "a::b", "a:=b", "_x:", "x_1:",
    "é", "éa1", "aé:", "²", "a²", "²a", "½", "٣", "a٣", "٣a", "16r٣",
    "ß:=1", "#é", "#aé:", "𝒳", "\x1cx", "x\u00a0y", "x\u2003y", "x\u200by",
    "x\u2028y\nz",
    "$", "$a", "$ ", "$\n", "$'", "$$", "x$", "a $", "\n$",
    "", " ", "\n", "\n\n  x", "x\n", "\t\r\f\v x", "`", "{", "a ` b", "\x00",
]


@pytest.mark.parametrize("source", EDGES)
def test_edge(source):
    assert_same(source)


ALPHABET = list(
    "abcxyzr_ABZ019 \n\t'\"$#():=|-+*<>~.^;![]@,eE\\?&%/`{"
) + [
    "é", "²", "٣", "ß", "½", "\x1c", "𝒳", "16rFF", "99rX", "12r", "''",
    "#(", "#foo:bar:", "#'q'", "#+", "kw:", ":=", "||", "|=", " - ", "-5",
    "3.5e-2", "1.5", "World!k0123", "x!a@7", "'it''s'", '"c"', "$'",
]


@pytest.mark.parametrize("seed", range(4))
def test_random_strings_over_the_token_alphabet(seed):
    rng = random.Random(seed)
    for _ in range(6000):
        assert_same(
            "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(16)))
        )


def test_the_scanner_is_no_longer_than_the_lexer_it_replaced():
    scanner = ROOT / "src" / "repro" / "opal" / "lexer.py"
    assert len(scanner.read_text().splitlines()) <= 243
