"""Every oracle failure prints a copy-pasteable reproducer that re-fails.

The contract: a failure report embeds ``python -m repro.check --seed N
--case K [--oracle O] [--bug B]``; running exactly that command reproduces the
failure (exit 1), and running a passing case exits 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.check import check

SMOKE_SEED = 2026
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.check", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_passing_case_exits_zero():
    result = run_cli(["--seed", str(SMOKE_SEED), "--case", "0"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "ok:" in result.stdout


def test_failure_report_embeds_its_own_reproducer():
    report = check("differential", SMOKE_SEED, cases=100, bug="stale-memo")
    assert not report.ok, "injected stale-memo bug must produce a failure"
    description = report.failures[0].describe()
    assert "  reproduce: python -m repro.check" in description
    command = re.search(r"python -m repro\.check [^\n]+", description).group(0)
    assert f"--seed {SMOKE_SEED}" in command
    assert "--bug stale-memo" in command


def test_printed_reproducer_re_fails():
    report = check("differential", SMOKE_SEED, cases=100, bug="stale-memo")
    command = re.search(
        r"python -m repro\.check ([^\n]+)",
        report.failures[0].describe(),
    ).group(1)
    result = run_cli(command.split())
    assert result.returncode == 1, result.stdout + result.stderr
    assert "mismatch" in result.stdout


#: first case of the smoke seed that trips the injected stale-memo bug
#: (a directory drop followed by a re-query; re-pin when the generator
#: stream changes)
STALE_MEMO_CASE = 11


def test_cli_shrink_prints_a_minimal_case():
    result = run_cli([
        "--seed", str(SMOKE_SEED), "--case", str(STALE_MEMO_CASE),
        "--bug", "stale-memo", "--shrink",
    ])
    assert result.returncode == 1
    assert "shrunk reproducer:" in result.stdout
    assert f"case seed=2026 index={STALE_MEMO_CASE}" in result.stdout


def test_temporal_and_schedule_cli_modes():
    temporal = run_cli(
        ["--seed", str(SMOKE_SEED), "--case", "1", "--oracle", "temporal"]
    )
    assert temporal.returncode == 0, temporal.stdout + temporal.stderr
    schedule = run_cli(
        ["--seed", str(SMOKE_SEED), "--case", "1", "--oracle", "schedule"]
    )
    assert schedule.returncode == 0, schedule.stdout + schedule.stderr
    assert "serializable" in schedule.stdout
