"""The multiprocess differential oracle: three stacks, zero divergence."""

from __future__ import annotations

from repro.check import check
from repro.check.__main__ import main as check_main


def test_cluster_case_agrees_across_all_three_stacks():
    report = check("cluster", seed=2026, case=0)
    assert report.ok, [f.describe() for f in report.failures]
    assert report.counts["statements"] > 0
    assert report.counts["commits"] > 0
    # the workload must actually exercise real cross-process 2PC
    assert report.counts["cross_shard_commits"] > 0


def test_cluster_oracle_cli_reproducer_exits_zero(capsys):
    assert check_main(
        ["cluster", "--seed", "2026", "--case", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "agree across" in out
