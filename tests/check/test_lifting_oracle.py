"""The lifting oracle: unlifted, lifted cold, lifted warm — no difference.

Besides running the oracle green over a seed range, these tests break
what it guards, one thing at a time, and demand that it notices: a
report that prints the first caller's literals, a closure that reads the
literals of whatever text ran last.
"""

from repro.check import run_lifting_case, run_lifting_range, run_soak
from repro.check.__main__ import main
from repro.check.lifting import _EDGES, _generated_shapes
from repro.opal import declarative, interpreter
from repro.opal.lexer import Lexer

SMOKE_SEED = 2026


def test_seed_range_agrees_three_ways():
    report = run_lifting_range(SMOKE_SEED, 12)
    assert report.ok, "\n".join(report.problems)
    assert report.selects == 12 * (40 + 2 * len(_EDGES))
    # the warm runs really were served a block compiled for other
    # literals (a generated int/float draw aside)
    assert report.warm_hits >= 0.95 * report.selects


def test_run_is_deterministic():
    first = run_lifting_case(SMOKE_SEED, 3)
    again = run_lifting_case(SMOKE_SEED, 3)
    assert (first.selects, first.warm_hits) == (again.selects, again.warm_hits)


def test_every_edge_pair_is_one_shape():
    places = {"bag": "World!indexed", "pinned": 2}
    for text, sibling in _EDGES:
        assert (
            Lexer(text.format(**places)).shape
            == Lexer(sibling.format(**places)).shape
        ), text


def test_generated_shapes_cover_the_declarative_and_the_procedural_path():
    import random

    texts = [shape(random.Random(1)) for shape in _generated_shapes(2)]
    assert any("t := e!n" in text for text in texts)
    assert any("reject:" in text for text in texts)
    assert any("@2" in text for text in texts)


def test_cli_runs_one_case(capsys):
    assert main(["--oracle", "lifting", "--seed", "2026", "--case", "1"]) == 0
    assert "lifted warm" in capsys.readouterr().out


def test_soak_folds_in_the_lifting_oracle_outside_its_digest():
    with_lifting = run_soak(SMOKE_SEED, diff_cases=2, lifting_cases=2)
    without = run_soak(SMOKE_SEED, diff_cases=2, lifting_cases=0)
    assert with_lifting["lifting_selects"] > 0
    assert without["lifting_selects"] == 0
    assert with_lifting["digest"] == without["digest"]


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
        report = run_lifting_case(SMOKE_SEED, 0)
        assert not report.ok
        assert any("warm differs" in problem for problem in report.problems)
        assert "--oracle lifting" in report.problems[-1]

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
        report = run_lifting_case(SMOKE_SEED, 0)
        assert not report.ok
        assert any("kept block" in problem for problem in report.problems)
