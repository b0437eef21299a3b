"""The 2PC crash sweep and its CLI reproducer, as a fast regression."""

import json

from repro.check import check
from repro.check.__main__ import main


class TestSweep:
    def test_small_sweep_holds_every_invariant(self):
        report = check("shard", stride=2, seed=11, shards=2, transactions=4)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.cases_run > 0
        assert report.counts["acked_checked"] > 0
        assert report.counts["liveness_commits"] == report.cases_run

    def test_digest_is_json_ready(self):
        report = check("shard", stride=4, seed=11, shards=2, transactions=3)
        digest = json.loads(json.dumps(report.digest()))
        assert digest["ok"] is True
        assert digest["seed"] == 11


class TestCli:
    def test_host_flag_runs_the_same_sweep_over_processes(self, capsys):
        assert main(["shard", "--host", "process", "--seed", "11",
                     "--transactions", "4", "--case", "0"]) == 0
        out = capsys.readouterr().out
        assert "host=process" in out and "\nok: " in out

    def test_json_digest_output(self, capsys):
        assert main(["shard", "--seed", "11", "--shards", "2",
                     "--transactions", "4", "--case", "1", "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["ok"] is True
