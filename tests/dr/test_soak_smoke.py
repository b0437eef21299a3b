"""The disaster sweep and its CLI reproducer, as a fast regression."""

import json

from repro.check import check
from repro.check.__main__ import main


class TestSweep:
    def test_small_sweep_holds_every_invariant(self):
        report = check("dr", seed=11, commits=3, writes_per_commit=2)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.counts["torn_rejected"] == 0
        assert report.counts["rebuilds_verified"] > 0
        assert report.counts["pit_recoveries"] > 0  # a non-latest epoch was rebuilt

    def test_digest_is_json_ready(self):
        report = check("dr", stride=2, seed=11, commits=2, writes_per_commit=1)
        digest = json.loads(json.dumps(report.digest()))
        assert digest["ok"] is True
        assert digest["seed"] == 11


class TestCli:
    def test_json_digest_output(self, capsys):
        assert main(["dr", "--seed", "11", "--commits", "2",
                     "--case", "1", "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["ok"] is True
