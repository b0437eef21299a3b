"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

``pyproject.toml`` keeps ``testpaths = ["tests"]``, so a bare ``pytest``
never collects this file; it takes about two minutes because it runs
all six workloads, untraced and traced, at 1 % of their ops.
"""

import json
import os
import re
from collections import Counter

import pytest

from benchmarks.e2e import ROOT, layers
from benchmarks.e2e.__main__ import QUICK_SCALE, RUN_SECONDS, run_one
from benchmarks.e2e.catalogue import (END_TO_END, GATED, LAYERS, PER_LAYER,
                                      WORKLOADS, benchmark_json)
from benchmarks.e2e.workloads import ALL

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_is_the_catalogue_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == benchmark_json(RUN_SECONDS)


def test_names_units_and_reasons_fit_the_contract():
    assert list(ALL) == list(WORKLOADS)
    assert 2 <= len(GATED) <= 8 and set(GATED) <= set(WORKLOADS)
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == END_TO_END[0].bound  # setup_s
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_moves_keys_but_not_the_mix(name):
    first, second = ALL[name].ops(1, 400), ALL[name].ops(2, 400)
    assert Counter(op.kind for op in first) == Counter(op.kind for op in second)
    assert [op.sources for op in first] != [op.sources for op in second]
    assert [op.sources for op in first] == [op.sources for op in ALL[name].ops(1, 400)]


def test_self_time_never_exceeds_the_span(tmp_path):
    path = tmp_path / "spans.1.json"
    path.write_text(json.dumps({"role": "server", "pid": 1, "threads": [[
        ["executor.apply", 0.0, 10.0, -1, [1, 7], None],
        ["opal.execute", 1.0, 9.0, 0, None, None],
        ["storage.persist", 2.0, 5.0, 1, None, None],
        ["net.receive", 5.0, 6.0, 1, None, -1],  # an idle poll: dropped
    ]]}))
    spans = layers.load_spans([str(path)])
    assert [span.name for span in spans] == [
        "executor.apply", "opal.execute", "storage.persist"]
    assert [span.self_time for span in spans] == [2.0, 5.0, 3.0]
    assert all(0.0 <= span.self_time <= span.duration for span in spans)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_reports_every_metric_without_errors(name):
    for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
        result = run_one(name, seed=7, trace=trace, scale=QUICK_SCALE)["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0  # error_frac == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in catalogue]
        for metric in catalogue:
            entry = result["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], float)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if trace == 0:
            assert all(value > 0 for value in values.values())  # never 0
        else:
            shares = [values[f"{layer}.self_share"] for layer in LAYERS]
            assert all(0.0 <= share <= 1.0 for share in shares)
            # the layers' self times are disjoint parts of the client's time
            assert sum(shares) <= values["trace.coverage_frac"] + 1e-9
            assert values["client.error_frac"] == 0.0
