"""The sharded store as a differential execution mode: OPAL through the
cluster front end must be observation-identical to one monolithic store.
"""

from repro.check import Failure, check, oracle_database, reproducer, run_soak
from repro.check.sharded import Sharded, _side_by_side, generate_shard_workload
from repro.shard.partition import route_statement


class TestWorkloadGenerator:
    def test_deterministic_per_seed(self):
        a = generate_shard_workload(5, 1, shards=3, transactions=6)
        b = generate_shard_workload(5, 1, shards=3, transactions=6)
        assert a == b

    def test_every_statement_routes_to_one_shard(self):
        for case in range(4):
            workload = generate_shard_workload(
                9, case, shards=4, transactions=8
            )
            for statements in workload:
                for source in statements:
                    route_statement(source, 4)  # raises if multi-shard

    def test_seeds_differ(self):
        a = generate_shard_workload(1, 0, shards=3, transactions=6)
        b = generate_shard_workload(2, 0, shards=3, transactions=6)
        assert a != b


class TestShardedOracle:
    def test_case_agrees_with_the_baseline(self):
        report = check("sharded", 2026, case=0)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.counts["statements"] > 0
        assert report.counts["commits"] > 0

    def test_range_exercises_cross_shard_commits(self):
        report = check("sharded", 2026, cases=3)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.counts["cross_shard_commits"] > 0

    def test_failure_prints_a_reproducer(self):
        report = check("sharded", 2026, case=1)
        # fabricate a mismatch path check without breaking the store
        text = Failure(
            "sharded", 2026, 1, "divergence in transaction 3: statement 0 value",
            _side_by_side({"baseline": 1, "in-process": 2}),
            reproducer("sharded", 2026, 1),
        ).describe()
        assert "baseline:   1" in text and "in-process: 2" in text
        assert "python -m repro.check --seed 2026 --case 1" in text
        assert "--oracle sharded" in text
        assert report.ok

    def test_soak_folds_in_the_sharded_oracle(self):
        metrics = run_soak(
            2026, diff_cases=2, temporal_cases=1,
            schedule_cases=1, sharded_cases=1,
        )
        assert metrics["sharded_statements"] > 0
        assert metrics["problems"] == 0


class TestTheOraclesReachTheAppendPath:
    def test_the_oracle_database_starts_with_a_world_of_several_tracks(self):
        database = oracle_database()
        world = database.store.catalog["world"]
        assert len(database.store.table.get(world).tracks) >= 2

    def test_every_shard_and_the_baseline_hold_a_wide_world(self, monkeypatch):
        from repro.check import sharded

        spans = {}
        real = sharded.reopen_cold_diff

        def recording(database):
            world = database.store.catalog["world"]
            spans[id(database)] = len(database.store.table.get(world).tracks)
            return real(database)

        monkeypatch.setattr(sharded, "reopen_cold_diff", recording)
        report = check("sharded", 2026, case=0)
        assert report.ok, [f.describe() for f in report.failures]
        assert len(spans) == 1 + Sharded.SHARDS  # baseline + each shard, cold
        assert min(spans.values()) >= 2

    def test_a_platter_that_reopens_differently_is_a_mismatch(self, monkeypatch):
        from repro.check import sharded

        monkeypatch.setattr(
            sharded, "reopen_cold_diff",
            lambda database: ["reopened cold: oid 9: differs"],
        )
        report = check("sharded", 2026, case=0)
        assert not report.ok
        assert "reopened cold" in report.failures[0].describe()
