"""A count, not a time: what wiring ``repro.obs`` costs a block of OPAL.

The contract in ``docs/observability.md`` is that an attached
:class:`~repro.obs.Observability` with tracing off costs nothing: the
instrumented call site guards with one attribute load
(``tracer.enabled``) and builds no span.  Under ``cProfile`` (exact per
build), ``engine.execute("(World!probe) pump: N")`` on the 24-deep send
chain of ``tests/perf/test_send_cache.py`` makes as many calls with
tracing off as with no ``obs`` at all (1 064 at N = 10, 9 794 at
N = 100), and tracing on adds one constant per block whatever N is.
"""

import cProfile
import pstats

import pytest

from repro.obs import Observability
from repro.obs.tracing import Span

from ..perf.test_send_cache import build_engine

TRACING = Span.__init__.__code__.co_filename


def engine_with(obs):
    engine = build_engine()
    engine.obs = obs
    return engine


def profile_of(engine, n: int) -> pstats.Stats:
    """The profile of one warm ``execute`` pumping the send loop *n* times."""
    source = f"(World!probe) pump: {n}"
    for _ in range(3):  # compile the block, fill the caches
        engine.execute(source)
    profile = cProfile.Profile()
    profile.enable()
    assert engine.execute(source) == 4 * n
    profile.disable()
    return pstats.Stats(profile)


@pytest.mark.parametrize("n", [10, 100])
def test_tracing_off_makes_exactly_the_bare_calls(n):
    bare = profile_of(engine_with(None), n).total_calls
    off = profile_of(engine_with(Observability(tracing=False)), n).total_calls
    assert off == bare


def test_tracing_on_adds_a_constant_per_block():
    extra = [
        profile_of(engine_with(Observability(tracing=True)), n).total_calls
        - profile_of(engine_with(None), n).total_calls
        for n in (10, 100)
    ]
    assert extra[0] > 0
    assert extra[0] == extra[1]


def test_tracing_off_builds_no_span():
    stats = profile_of(engine_with(Observability(tracing=False)), 10).stats
    called = [name for (path, _line, name) in stats if path == TRACING]
    assert called == [], f"tracing off, yet {called} of the tracer ran"
