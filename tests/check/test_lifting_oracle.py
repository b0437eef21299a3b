"""The lifting oracle: unlifted, lifted cold, lifted warm — no difference.

Besides running the oracle green over a seed range, these tests break
what it guards, one thing at a time, and demand that it notices: a
report that prints the first caller's literals, a closure that reads the
literals of whatever text ran last.
"""

from repro.check import check
from repro.check.__main__ import main
from repro.check.lifting import _EDGES, _generated_shapes
from repro.opal import declarative, interpreter
from repro.opal.lexer import Lexer

SMOKE_SEED = 2026


def test_seed_range_agrees_three_ways():
    report = check("lifting", seed=SMOKE_SEED, cases=12)
    assert report.ok, "\n".join(f.describe() for f in report.failures)
    assert report.counts["selects"] == 12 * (40 + 2 * len(_EDGES))
    # the warm runs really were served a block compiled for other
    # literals (a generated int/float draw aside)
    assert report.counts["warm_hits"] >= 0.95 * report.counts["selects"]


def test_every_edge_pair_is_one_shape():
    places = {"bag": "World!indexed", "pinned": 2}
    for text, sibling in _EDGES:
        assert (
            Lexer(text.format(**places)).shape
            == Lexer(sibling.format(**places)).shape
        ), text


def test_generated_shapes_cover_the_declarative_and_the_procedural_path():
    import random

    texts = [shape(random.Random(1), "World!indexed") for shape in _generated_shapes(2)]
    assert any("t := e!n" in text for text in texts)
    assert any("reject:" in text for text in texts)
    assert any("@2" in text for text in texts)


def test_cli_runs_one_case(capsys):
    assert main(["lifting", "--seed", "2026", "--case", "1"]) == 0
    assert "lifted warm" in capsys.readouterr().out


class TestInjectedBugs:
    def test_a_plan_that_prints_the_first_callers_literals(self, monkeypatch):
        real = declarative._log_query

        def first_callers(obs, compiled, block_ast, plan, context, *rest, **kw):
            kept = getattr(compiled, "first_params", None)
            if kept is None:
                kept = compiled.first_params = list(context.params)
            context.params = kept
            return real(obs, compiled, block_ast, plan, context, *rest, **kw)

        monkeypatch.setattr(declarative, "_log_query", first_callers)
        report = check("lifting", seed=SMOKE_SEED, case=0)
        assert not report.ok
        assert any("warm differs" in f.what for f in report.failures)
        assert "repro.check lifting --seed" in report.failures[-1].reproducer

    def test_a_block_that_reads_the_last_texts_literals(self, monkeypatch):
        # as if the literal vector hung on the engine, not in the frame of
        # the doit that made the closure
        real = interpreter.OpalEngine._compiled
        last = []

        def remembering(self, source, names):
            method, literals = real(self, source, names)
            last[:] = [literals]
            return method, literals

        monkeypatch.setattr(interpreter.OpalEngine, "_compiled", remembering)
        monkeypatch.setattr(
            interpreter.BlockClosure, "literals",
            property(lambda closure: last[0]),
        )
        report = check("lifting", seed=SMOKE_SEED, case=0)
        assert not report.ok
        assert any("kept block" in f.what for f in report.failures)
