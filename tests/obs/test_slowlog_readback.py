"""What the slow-query log reads back does not depend on when it renders.

An entry is rendered when it is first read, not when the query that made
it finishes, so everything it shows must have been taken by value at the
finish.  Here 120 ``select_mix`` operations of the end-to-end benchmark
(its own op stream, over its own 4 000 employees) run in process into a
log with room for all of them; the entries read back, ``elapsed_ms``
left out, must hash to what a build that rendered each entry at offer
time read back.  ``python tests/obs/test_slowlog_readback.py`` prints
the digests of the ``src`` it runs against.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from repro import GemStone
from repro.obs import SlowQueryLog

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
OPS = 120

#: seed -> sha256 of the sorted read-back entries, rendered at offer time
DIGESTS = {
    7: "260ec7643c85638a4ed36387e460a4eb4424bb6f2e3519197e50cafbbd406a41",
    2026: "6be40e0525da6e857d8904fefd2bf47ae9cf9bd467018bd21cd06e485cf2300c",
}


def select_mix():
    path = ROOT / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec)
    )
    spec.loader.exec_module(module)
    return module.ALL["select_mix"]


def read_back_digest(seed: int) -> str:
    workload = select_mix()
    database = GemStone.create()
    with database.login() as loader:
        workload.load(database, loader, seed)
    database.obs.slow_queries = SlowQueryLog(capacity=OPS)
    with database.login() as session:
        for op in workload.ops(seed, OPS):
            source, = op.sources
            assert (session.execute(source),) == op.expects, source
    entries = database.obs.slow_queries.slowest()
    assert len(entries) == OPS
    lines = sorted(
        json.dumps({k: v for k, v in entry.items() if k != "elapsed_ms"},
                   sort_keys=True)
        for entry in entries
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_read_back_entries_match_those_rendered_at_offer_time(seed):
    assert read_back_digest(seed) == DIGESTS[seed]


if __name__ == "__main__":
    for seed in sorted(DIGESTS):
        print(f"    {seed}: \"{read_back_digest(seed)}\",")
