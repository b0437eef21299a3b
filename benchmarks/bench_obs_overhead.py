"""Observability overhead: the disabled-tracing tax must stay under 5%.

The contract in ``docs/observability.md`` is that wiring a database to
``repro.obs`` costs nothing you can measure while tracing is off: every
instrumented call site guards with one attribute load (``obs is None``
or ``tracer.enabled``) and allocates no span.  This harness proves the
contract on the send-heavy E-send workload (``bench_send_cache``),
driven through ``engine.execute`` so the instrumented entry point runs
once per block:

* **bare** — the engine's ``obs`` is None (the pre-observability shape);
* **obs-off** — an :class:`~repro.obs.Observability` attached, tracing
  disabled (the production default);
* **obs-on** — tracing enabled, for scale (not asserted: spans are
  *meant* to cost).

The harness fails (raises) if obs-off exceeds ``OVERHEAD_BUDGET`` over
bare.  Timings are best-of-``repeat`` and the two asserted modes are
measured interleaved, so a background hiccup cannot charge one side.

Run it:  python benchmarks/bench_obs_overhead.py [--smoke]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_send_cache import DEPTH, build_engine  # noqa: E402

from repro.bench import Table, stopwatch  # noqa: E402
from repro.obs import Observability  # noqa: E402

#: the acceptance budget: disabled-tracing overhead vs the bare engine
OVERHEAD_BUDGET = 0.05


def _workload(engine, loops: int, rounds: int) -> int:
    """*rounds* blocks of OPAL, each pumping the send loop *loops* times."""
    total = 0
    for _ in range(rounds):
        total += engine.execute(f"(World!probe) pump: {loops}")
    return total


def _measure(modes: dict, loops: int, rounds: int, repeat: int) -> dict:
    """Best-of-*repeat* per mode, with the passes interleaved."""
    best = {name: float("inf") for name in modes}
    expected = None
    for _ in range(repeat):
        for name, engine in modes.items():
            timing = stopwatch(lambda e=engine: _workload(e, loops, rounds))
            best[name] = min(best[name], timing.seconds)
            if expected is None:
                expected = timing.result
            assert timing.result == expected, f"{name} computed a different sum"
    return best


def main(argv=None) -> None:
    smoke = argv is not None and "--smoke" in argv
    loops = 200 if smoke else 2_000
    rounds = 5
    repeat = 3 if smoke else 7

    bare = build_engine()
    bare.obs = None

    guarded = build_engine()
    guarded.obs = Observability(tracing=False)

    traced = build_engine()
    traced.obs = Observability(tracing=True)

    best = _measure(
        {"bare": bare, "obs-off": guarded}, loops, rounds, repeat
    )
    traced_best = _measure({"obs-on": traced}, loops, rounds, repeat)["obs-on"]

    overhead = (best["obs-off"] - best["bare"]) / best["bare"]
    sends = 4 * loops * rounds

    table = Table(
        f"Observability overhead: {sends:,} sends via execute "
        f"(depth {DEPTH})",
        ["mode", "time (ms)", "vs bare"],
    )
    table.add("bare (no obs wired)", best["bare"] * 1e3, "1.000x")
    table.add(
        "obs attached, tracing off",
        best["obs-off"] * 1e3,
        f"{best['obs-off'] / best['bare']:.3f}x",
    )
    table.add(
        "obs attached, tracing ON",
        traced_best * 1e3,
        f"{traced_best / best['bare']:.3f}x",
    )
    table.note(
        f"disabled-tracing overhead {overhead * 100:+.2f}% "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )
    table.show()

    if overhead > OVERHEAD_BUDGET:
        raise AssertionError(
            f"disabled-tracing overhead {overhead * 100:.2f}% exceeds the "
            f"{OVERHEAD_BUDGET * 100:.0f}% budget"
        )


if __name__ == "__main__":
    main()
