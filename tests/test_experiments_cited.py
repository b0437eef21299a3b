"""Every experiment EXPERIMENTS.md cites is a module with tests.

CI runs the experiments' asserted shapes as one pytest step over
``benchmarks/``; a cited harness that went missing, or that holds only
a printing ``main()``, would drop out of that step without a failure.
"""

import ast
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
CITED = sorted(set(re.findall(
    r"\bbench_\w+\.py\b", (REPO_ROOT / "EXPERIMENTS.md").read_text()
)))


def test_experiments_cite_their_harnesses():
    assert len(CITED) >= 15, CITED


@pytest.mark.parametrize("name", CITED)
def test_cited_experiment_defines_tests(name):
    path = REPO_ROOT / "benchmarks" / name
    assert path.is_file(), f"EXPERIMENTS.md cites {name}, which does not exist"
    tree = ast.parse(path.read_text())
    tests = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    ]
    assert tests, f"{name} defines no test_ function"
