"""One run of one workload: set up, warm up, measure, crash, verify.

``run_workload`` is what ``run.py`` calls.  With ``trace`` off it makes
``Workload.passes`` passes — each a fresh system set up from nothing and driven
with the *same* op list — and reports the end-to-end metrics from the
per-op minimum across passes: the host is shared and its noise only
ever adds time, so the fastest of the identical executions of op *i*
is the best estimate of what op *i* costs, while anything the program
itself does slowly is slow in every pass and stays in the sample.  Many
short passes beat few long ones: an op is only wrong if every pass was
disturbed at that op.

With ``trace`` on it first times the (shorter) op list against an
unwatched system — the base for ``trace.overhead_frac`` — then installs
the wrappers, runs once more and reports the per-layer metrics.  The
generator process stays patched after a traced run, so every run is its
own process.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from typing import Any

from . import ROOT, probe
from .catalogue import END_TO_END, FLUSH_POLICY, PER_LAYER, SLO_MS
from .driver import (ClusterRig, DiskByteCounter, FrontDoorRig, OpRecord,
                     run_closed, run_open)
from .workloads import ALL, Op, Workload, open_schedule

#: blocks a pass is cut into; the servers' CPU clock is read at each edge
CPU_BLOCKS = 40
#: share of the op count run first and thrown away
WARM_SHARE = 0.05
#: share of the untraced op count a traced run measures
TRACED_SHARE = 0.2
#: a pass is cut short once it has measured this many times its share
#: of ``--seconds``
DEADLINE_FACTOR = 2.0
#: no further pass is started once the passes so far have taken this
#: many times ``--seconds``, set-ups included (the driver's runs share a
#: fixed hour, whatever the host's speed that day)
RUN_FACTOR = 1.6
MIN_PASSES = 4


class Measured:
    """Everything one measured phase produced."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.records: list[OpRecord] = []
        self.late: list[float] = []
        self.wall_s = 0.0
        #: CPU of the server/worker processes, and of this process
        self.cpu_s = 0.0
        self.client_cpu_s = 0.0
        #: the servers' CPU clock before each block of ``block`` ops, and
        #: once more when the last op was done
        self.cpu_marks: list[float] = []
        self.block = 1
        self.before: dict = {}
        self.after: dict = {}
        self.links = (0, 0)
        self.peak_rss_mib = 0.0
        self.user_bytes_total = 0
        self.space = (0, 0)
        self.mismatches = 0
        self.recover_ms = 0.0
        self.failed_warm = 0
        self.span_files: list[str] = []
        self.spans: list = []
        self.truncated = False

    @property
    def latencies_ms(self) -> list[float]:
        return [(r.end - r.start) * 1000.0 for r in self.records]


def _make_rig(workload: Workload, seed: int, directory: str, trace: bool,
              counter, bindings=None):
    if workload.topology == "cluster":
        return ClusterRig(workload, seed, directory, counter)
    return FrontDoorRig(workload, seed, directory, trace, bindings)


def measure(rig, workload: Workload, seed: int, ops: list[Op], warm: int,
            seconds: float, traced: bool, crash: bool = True) -> Measured:
    """Warm up, measure, collect spans; with *crash*, SIGKILL the
    server processes, reopen the platters and verify every acked write."""
    out = Measured()
    out.ops = ops[warm:]
    # an open loop's ops overlap, so work slides across block edges and
    # a per-block minimum would undercount: the pass is one block there
    out.block = (len(out.ops) if workload.loop == "open"
                 else max(1, len(out.ops) // CPU_BLOCKS))
    state: dict[str, Any] = {}
    pids = rig.pids()

    def mark() -> None:
        out.cpu_marks.append(sum(probe.cpu_seconds(pid) for pid in pids))

    def start_measuring() -> None:
        state["before"] = rig.snapshot()
        state["client_cpu"] = time.process_time()
        state["t0"] = time.perf_counter()

    if workload.loop == "open":
        offsets = (open_schedule("warm", warm, workload.rate)
                   + open_schedule("measured", len(ops) - warm, workload.rate))
        result = asyncio.run(
            run_open(rig, ops, offsets, warm, traced, start_measuring,
                     out.block, mark)
        )
        warm_records = result["records"][:warm]
        out.records = result["records"][warm:]
        out.late = result["late"]
        out.links = result["links"]
        finished = result["finished"]
    else:
        warm_records = run_closed(rig, ops[:warm], float("inf"))
        start_measuring()
        links = rig.link_counters()
        deadline = time.perf_counter() + seconds * DEADLINE_FACTOR
        out.records = run_closed(rig, ops[warm:], deadline, out.block, mark)
        finished = time.perf_counter()
        after = rig.link_counters()
        out.links = (after[0] - links[0], after[1] - links[1])
        out.truncated = len(out.records) < len(out.ops)
        out.ops = out.ops[: len(out.records)]
    mark()
    out.wall_s = finished - state["t0"]
    out.client_cpu_s = time.process_time() - state["client_cpu"]
    out.cpu_s = out.cpu_marks[-1] - out.cpu_marks[0]
    out.before, out.after = state["before"], rig.snapshot()
    out.peak_rss_mib = sum(probe.peak_rss_mib(pid) for pid in pids)
    out.failed_warm = sum(1 for record in warm_records if not record.ok)
    if traced:
        out.span_files = rig.span_files()

    # every acked write, in issue order; a failed op's keys are unknowable
    expected: dict[str, Any] = {}
    attempted = list(zip(ops, warm_records + out.records))
    for op, record in attempted:
        for path, value in op.writes:
            if record.ok:
                expected[path] = value
            else:
                expected.pop(path, None)
    out.user_bytes_total = out.after["user_bytes_loaded"] + sum(
        op.user_bytes for op, _ in attempted
    )
    if crash and workload.disk == "file":
        rig.crash()
        out.mismatches, out.recover_ms = rig.verify(expected)
    out.space = rig.finish()
    return out


def end_to_end(workload: Workload, passes: list[Measured],
               setup_times: list[float]) -> dict:
    """The end-to-end metrics from the per-op minimum across *passes*."""
    count = min(len(run.records) for run in passes)
    ok = [all(run.records[i].ok for run in passes) for i in range(count)]
    latencies = [
        min((run.records[i].end - run.records[i].start) for run in passes) * 1000.0
        for i in range(count)
    ]
    if workload.loop == "open":
        good = sum(1 for i in range(count) if ok[i] and latencies[i] <= SLO_MS)
        ops_per_s = good / min(run.wall_s for run in passes)
    else:
        # an op's cycle runs to the next op's start: latency plus the
        # generator's own time between ops
        def cycle(run: Measured, i: int) -> float:
            records = run.records
            following = records[i + 1].start if i + 1 < count else records[i].end
            return following - records[i].start

        busy = sum(min(cycle(run, i) for run in passes) for i in range(count))
        ops_per_s = sum(ok) / busy
    # the servers' CPU, block by block, each block at its cheapest pass
    block = passes[0].block
    whole = count // block
    cpu_s = sum(
        min(run.cpu_marks[b + 1] - run.cpu_marks[b] for run in passes)
        for b in range(whole)
    )
    first = passes[0]
    latencies.sort()
    values = {
        "setup_s": probe.median(setup_times),
        "op_p50_ms": probe.percentile(latencies, 0.50),
        "op_p95_ms": probe.percentile(latencies, 0.95),
        "ops_per_s": ops_per_s,
        "server_cpu_ms_per_op": cpu_s * 1000.0 / (whole * block),
        "disk_bytes_per_user_byte": first.after["disk_bytes"] / first.user_bytes_total,
        "space_bytes_per_user_byte": first.space[0] / first.user_bytes_total,
        "peak_rss_mb": probe.median(run.peak_rss_mib for run in passes),
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    """Run one workload once; returns the result plus a manifest."""
    workload = ALL[name]
    share = TRACED_SHARE if trace else 1.0 / workload.passes
    count = workload.op_count(seconds, scale * share)
    warm = max(1, int(count * WARM_SHARE))
    ops = workload.ops(seed, warm + count)
    workroot = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(workroot, ignore_errors=True)
    counter = DiskByteCounter() if workload.topology == "cluster" else None
    manifest = probe.manifest()
    manifest.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                    ops_per_pass=count, warm_ops=warm, flush_policy=FLUSH_POLICY)
    spin_before = probe.spin_ms()
    try:
        if trace:
            from . import layers

            metrics, passes = layers.traced_run(
                workload, seed, ops, warm, seconds, workroot, counter, spin_before
            )
        else:
            setup_times, passes = [], []
            give_up = time.perf_counter() + seconds * RUN_FACTOR
            for number in range(workload.passes):
                if number >= MIN_PASSES and time.perf_counter() > give_up:
                    break
                rig = _make_rig(workload, seed,
                                os.path.join(workroot, f"pass{number}"),
                                False, counter)
                try:
                    started = time.perf_counter()
                    rig.setup()
                    setup_times.append(time.perf_counter() - started)
                    # one kill-and-reopen per run: the passes are identical
                    passes.append(measure(rig, workload, seed, ops, warm,
                                          seconds / workload.passes, False,
                                          crash=number == 0))
                finally:
                    rig.destroy()
            metrics = end_to_end(workload, passes, setup_times)
            manifest["setup_s_each"] = [round(t, 4) for t in setup_times]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))  # only if no other run is live
        except OSError:
            pass
    spin_after = probe.spin_ms()
    if trace:
        metrics["host.spin_ms_after"]["value"] = spin_after
    attempted = sum(warm + len(run.records) for run in passes)
    failed = sum(
        sum(1 for r in run.records if not r.ok) + run.failed_warm + run.mismatches
        for run in passes
    )
    manifest.update(
        passes=len(passes),
        measured_s=[round(run.wall_s, 3) for run in passes],
        truncated=any(run.truncated for run in passes),
        samples=min(len(run.records) for run in passes),
        durability_mismatches=max(run.mismatches for run in passes),
        spin_ms=[round(spin_before, 2), round(spin_after, 2)],
        noisy=abs(spin_after - spin_before) > 0.10 * min(spin_before, spin_after),
    )
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    if list(metrics) != names:
        raise RuntimeError(f"metric names drifted: {set(names) ^ set(metrics)}")
    return {
        "manifest": manifest,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
