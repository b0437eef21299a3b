"""The server process: a benchmark-owned bootstrap around the front door.

Started as ``python -m benchmarks.e2e.server <spec-json> <fd>``, where
*fd* is one end of a socket pair to the generator.  It creates the workload's store,
loads it through an in-process loader session (closed before anyone
logs in over the wire), binds ``FrontDoor(GemStone)`` to a localhost
port with ``serve_frontdoor`` and then answers the generator's control
requests over a pipe — all on the event-loop thread, so a snapshot
never races a request.  With ``trace`` set, the wrappers of
``tracing.py`` go in before the first ``repro`` object exists.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from multiprocessing.connection import Connection


class WallClock:
    """Real seconds behind the ``FaultClock`` surface admission reads.

    The shipped clock is simulated and only moves when someone advances
    it; a server on a real port has nobody to do that, so its leaky
    bucket drains against the wall.
    """

    @property
    def now(self) -> float:
        return time.monotonic()

    def advance(self, units: float) -> None:
        """Wall time advances by itself."""


def open_disk(workload, directory: str):
    from repro.storage.disk import DiskGeometry, SimulatedDisk
    from repro.storage.filedisk import FileDisk

    geometry = DiskGeometry(
        track_count=workload.track_count, track_size=workload.track_size
    )
    if workload.disk == "file":
        return FileDisk.create(platter_path(directory), geometry)
    return SimulatedDisk(geometry)


def platter_path(directory: str) -> str:
    return os.path.join(directory, "platter.bin")


def build_database(workload, seed: int, directory: str, bindings=None):
    """Create and load the workload's store; returns (database, user bytes).

    *bindings* overrides the load with that many plain bindings (the
    commit-size side probe).
    """
    from repro.db import GemStone

    from .workloads import binding_values, load_bindings

    database = GemStone.create(
        disk=open_disk(workload, directory), cache_capacity=workload.cache_capacity
    )
    loader = database.login()
    try:
        if bindings is None:
            user_bytes = workload.load(database, loader, seed)
        else:
            user_bytes = load_bindings(
                loader, "k", binding_values(workload.name, seed, bindings)
            )
    finally:
        loader.close()
    return database, user_bytes


def snapshot(database, door, admission, user_bytes: int) -> dict:
    """Every counter the generator reads, taken between requests."""
    report = database.storage_report()
    stats = report.pop("transactions")
    caches = database.obs.session_cache_totals()
    disk = database.disk
    out = {
        "time": time.perf_counter(),
        "user_bytes_loaded": user_bytes,
        "track_size": disk.track_size,
        "disk_writes": disk.stats.writes,
        "storage": report,
        "commits": stats.commits,
        "aborts": stats.aborts,
        "frontdoor": door.report(),
        "plans_built": database.perf_stats()["planner"]["plans_built"],
        "caches": {
            name: {"hits": cache["hits"], "misses": cache["misses"]}
            for name, cache in caches.items()
        },
    }
    if admission is not None:
        out["admission"] = {
            "admitted": admission.admitted,
            "shed": admission.shed_requests + admission.breaker_sheds,
        }
    return out


async def _serve(conn, spec: dict, tracer) -> None:
    from repro.frontdoor.server import FrontDoor
    from repro.govern.admission import AdmissionController
    from repro.net import serve_frontdoor, server_port

    from .workloads import ALL

    workload = ALL[spec["workload"]]
    database, user_bytes = build_database(
        workload, spec["seed"], spec["directory"], spec.get("bindings")
    )
    admission = None
    if workload.loop == "open":
        # generous gates: at 40 % load nothing is shed, so any shedding a
        # later change causes shows as a rise from zero
        admission = AdmissionController(
            clock=WallClock(), max_sessions=64, queue_capacity=256.0,
            drain_rate=4_000.0,
        )
    door = FrontDoor(database, admission=admission, window=workload.window)
    server = await serve_frontdoor(door)
    loop = asyncio.get_running_loop()
    stopped = loop.create_future()

    def on_control() -> None:
        try:
            command = conn.recv()
        except EOFError:  # the generator is gone: nothing left to serve
            command = "stop"
        if command == "snapshot":
            conn.send(snapshot(database, door, admission, user_bytes))
        elif command == "spans":
            conn.send(tracer.dump(spec["directory"]) if tracer else None)
        elif command == "stop" and not stopped.done():
            stopped.set_result(None)

    loop.add_reader(conn.fileno(), on_control)
    conn.send({"ready": True, "port": server_port(server), "pid": os.getpid()})
    await stopped
    loop.remove_reader(conn.fileno())
    server.close()
    await server.wait_closed()
    await door.close()


def main(argv: list[str]) -> None:
    """Entry point of the server process."""
    spec, conn = json.loads(argv[0]), Connection(int(argv[1]))
    tracer = None
    if spec["trace"]:
        from . import tracing

        tracer = tracing.install("server")
    try:
        asyncio.run(_serve(conn, spec, tracer))
    except Exception as error:  # noqa: BLE001 — report, then die visibly
        conn.send({"ready": False, "error": f"{type(error).__name__}: {error}"})
        raise
    finally:
        conn.close()


if __name__ == "__main__":
    main(sys.argv[1:])
