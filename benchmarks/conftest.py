"""Import the experiments as their scripts run: ``benchmarks/`` first
on ``sys.path``, so ``from harness import Table`` and ``from workloads
import ...`` resolve under pytest too."""

import pathlib
import sys

HERE = str(pathlib.Path(__file__).parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
