"""The repo's end-to-end benchmark (described by the root ``BENCHMARK.json``).

Six workloads drive a GemStone server that runs in its own process —
over TCP through the async front door, or through ``ProcCluster``'s
forked shard workers — from one generator process, check every reply
against a Python-dict model, and report eight end-to-end metrics plus a
per-layer breakdown measured from outside the program (wrappers this
package installs at run time; nothing under ``src/`` is edited).

    python3 benchmarks/e2e/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 2026          # every workload, both modes
    PYTHONPATH=src python -m benchmarks.e2e.repeat --sets 2      # run-to-run agreement

See ``README.md`` in this directory for the metric catalogue.
"""

import os
import sys

#: the checkout root (``benchmarks/e2e/`` sits two levels below it)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# The system under test is imported from the checkout's own ``src``;
# legacy benches do the same.  Worker processes started with ``spawn``
# inherit ``sys.path``, so one insertion here covers them too.
_SRC = os.path.join(ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
