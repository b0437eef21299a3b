"""The multiprocess differential oracle: three stacks, zero divergence."""

from __future__ import annotations

from repro.check.sharded import run_stack_case
from repro.check.__main__ import main as check_main


def test_cluster_case_agrees_across_all_three_stacks():
    report = run_stack_case(2026, 0, oracle="cluster")
    assert report.ok, [m.describe() for m in report.mismatches]
    assert report.statements > 0
    assert report.commits > 0
    # the workload must actually exercise real cross-process 2PC
    assert report.cross_shard_commits > 0


def test_cluster_oracle_cli_reproducer_exits_zero(capsys):
    assert check_main(
        ["--oracle", "cluster", "--seed", "2026", "--case", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "agree across" in out
