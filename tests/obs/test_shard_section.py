"""The ``shard`` observability section: schema-pinned and rendered.

The sharded cluster publishes ``shard.*`` counters/gauges plus a
structured ``shard`` section; its shape is pinned by the optional
``shard`` property in ``docs/observability_schema.json`` and the text
dashboard renders it next to the single-store sections.  One cluster,
so one snapshot: the same document whether the workers run in this
process or in forked ones.
"""

import json
import pathlib

import pytest

from repro.obs import validate
from repro.shard import ShardedGemStone
from repro.shard.partition import shard_of
from repro.shard.procs import ProcCluster
from repro.tools.dashboard import render_snapshot

SCHEMA_PATH = (
    pathlib.Path(__file__).parent.parent.parent
    / "docs"
    / "observability_schema.json"
)


@pytest.fixture(params=[ShardedGemStone, ProcCluster], ids=["memory", "process"])
def worked_cluster(request):
    cluster = request.param(shard_count=2)
    session = cluster.login()
    a = next(k for k in (f"w{i}" for i in range(99))
             if shard_of(k, 2) == 0)
    b = next(k for k in (f"w{i}" for i in range(99))
             if shard_of(k, 2) == 1)
    session.execute(f"World!{a} := 1")
    session.execute(f"World!{b} := 2")
    session.commit()  # cross-shard 2PC
    session.execute(f"World!{a} := 3")
    session.commit()  # single-shard fast path
    yield cluster
    cluster.close(drain=False)


class TestShardSection:
    def test_cluster_snapshot_matches_the_pinned_schema(self, worked_cluster):
        schema = json.loads(SCHEMA_PATH.read_text())
        shard_schema = schema["properties"]["shard"]
        snapshot = worked_cluster.observability()
        validate(snapshot["shard"], shard_schema)

    def test_shard_is_optional_at_the_top_level(self):
        # single-store snapshots must keep validating without it
        schema = json.loads(SCHEMA_PATH.read_text())
        assert "shard" in schema["properties"]
        assert "shard" not in schema["required"]

    def test_counters_and_gauges_are_published(self, worked_cluster):
        snapshot = worked_cluster.observability()
        counters = snapshot["counters"]["counters"]
        gauges = snapshot["counters"]["gauges"]
        assert counters["shard.single_shard_commits"] == 1
        assert counters["shard.cross_shard_commits"] == 1
        assert gauges["shard.in_doubt"] == 0
        assert gauges["shard.decision_log_pending"] == 0
        assert "shard.0.commits" in gauges

    def test_dashboard_renders_the_shard_section(self, worked_cluster):
        text = render_snapshot(worked_cluster.observability())
        assert "shards (2 workers, generation 0)" in text
        assert "single-shard 1" in text
        assert "cross-shard 1" in text
        assert "coordinator: decided 1 commit" in text
        assert "shard 0:" in text
        assert "shard 1:" in text
        assert "[DOWN]" not in text

    def test_dashboard_marks_dead_members(self, worked_cluster):
        worked_cluster.hosts[1].sigkill()
        worked_cluster.coordinator.alive = False
        snapshot = worked_cluster.observability()
        schema = json.loads(SCHEMA_PATH.read_text())
        validate(snapshot["shard"], schema["properties"]["shard"])
        assert render_snapshot(snapshot).count("[DOWN]") == 2
