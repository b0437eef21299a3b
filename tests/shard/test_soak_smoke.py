"""The 2PC crash sweep and its CLI reproducer, as a fast regression."""

import json

from repro.shard.__main__ import main as shard_main
from repro.shard.soak import run_shard_soak


class TestSweep:
    def test_small_sweep_holds_every_invariant(self):
        report = run_shard_soak(seed=11, shards=2, transactions=4, stride=2)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.kill_points_run > 0
        assert report.acked_checked > 0
        assert report.liveness_commits == report.kill_points_run

    def test_digest_is_json_ready(self):
        report = run_shard_soak(seed=11, shards=2, transactions=3, stride=4)
        digest = json.loads(json.dumps(report.digest()))
        assert digest["ok"] is True
        assert digest["seed"] == 11

    def test_every_failure_carries_a_reproducer(self):
        report = run_shard_soak(seed=11, shards=2, transactions=3, stride=4)
        for failure in report.failures:
            assert "python -m repro.shard" in failure.reproducer


class TestCli:
    def test_single_kill_replay_exits_zero(self, capsys):
        assert shard_main(["--seed", "11", "--shards", "2",
                           "--transactions", "4", "--kill", "0"]) == 0
        assert "ok: zero acked loss" in capsys.readouterr().out

    def test_host_flag_runs_the_same_sweep_over_processes(self, capsys):
        assert shard_main(["--host", "process", "--seed", "11",
                           "--transactions", "4", "--kill", "0"]) == 0
        out = capsys.readouterr().out
        assert "process hosts" in out and "ok: zero acked loss" in out

    def test_json_digest_output(self, capsys):
        assert shard_main(["--seed", "11", "--shards", "2",
                           "--transactions", "4", "--kill", "1",
                           "--json"]) == 0
        digest = json.loads(capsys.readouterr().out.split("\nok:")[0])
        assert digest["ok"] is True

    def test_out_of_range_kill_is_a_usage_error(self, capsys):
        assert shard_main(["--seed", "11", "--shards", "2",
                           "--transactions", "4", "--kill", "99999"]) == 2
        assert "error:" in capsys.readouterr().out
