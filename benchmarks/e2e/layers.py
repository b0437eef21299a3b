"""The traced run and the per-layer metrics computed from its spans.

A layer's **self time** is its spans' duration minus the part their
child spans cover; what the client waited for and no span on the far
side accounts for is **wire**.  Per-op values are medians over ops.
Spans reach their op two ways: on the closed loops a root span belongs
to the op during which it started (one op at a time, so the intervals
are disjoint); on the open loop ops overlap, so server spans carry the
``(channel, seq)`` of their frame and the client notes which op sent it.
"""

from __future__ import annotations

import bisect
import json
import os
from collections import defaultdict

from . import probe, tracing
from .catalogue import LAYERS, PER_LAYER, SLO_MS
from .workloads import Op, Workload, commit_probe_ops, one_shard_ops

#: the smaller World of the commit-size side probe, and the ops compared
PROBE_BINDINGS = 500
PROBE_OPS = 100


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "key", "extra", "children", "op",
                 "role")

    def __init__(self, raw, role: str) -> None:
        self.name, self.t0, self.t1, self.parent, key, self.extra = raw
        self.key = tuple(key) if key is not None else None
        self.children = 0.0
        self.op = -1
        self.role = role

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.children)


def load_spans(paths: list[str]) -> list[Span]:
    """Every span of every process, parents resolved, noise dropped."""
    spans: list[Span] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        for raw_thread in dump["threads"]:
            thread = [Span(raw, dump["role"]) for raw in raw_thread]
            for span in thread:
                span.parent = thread[span.parent] if span.parent >= 0 else None
                if span.name == "shard.rpc":
                    span.name = f"shard.rpc.{span.extra}"
            # a receive is time spent waiting: the client's (for a reply)
            # is kept to find the wire; a server's or worker's (for the
            # next request, or a poll that timed out: -1) is idleness
            thread = [s for s in thread
                      if not (s.name == "net.receive"
                              and (s.extra == -1 or dump["role"] != "client"))]
            for span in thread:
                if span.parent is not None:
                    span.parent.children += span.duration
            spans.extend(thread)
    return spans


def _is_wait(span: Span) -> bool:
    """The client blocked for a reply: time that belongs to the far side."""
    return span.role == "client" and span.name == "net.receive"


def assign_ops(spans: list[Span], records, loop: str) -> None:
    """Set ``span.op`` to the index of the measured op each span served."""
    roots = [span for span in spans if span.parent is None]
    if loop == "closed":
        starts = [record.start for record in records]
        for span in roots:
            index = bisect.bisect_right(starts, span.t0) - 1
            if index >= 0 and span.t0 <= records[index].end:
                span.op = index
    else:
        by_key = {
            tuple(key): index
            for index, record in enumerate(records) for key in record.keys
        }
        for span in roots:
            if span.key is not None:
                span.op = by_key.get(span.key, -1)
    for span in spans:  # children follow their root (parents precede them)
        if span.parent is not None:
            span.op = span.parent.op


class Table:
    """Per-op, per-name sums of the assigned spans."""

    def __init__(self, spans: list[Span], count: int) -> None:
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        #: op -> name -> [spans, total s, self s]
        self.per_op: list[dict[str, list[float]]] = [dict() for _ in range(count)]
        for span in spans:
            if span.op < 0:
                continue
            self.by_name[span.name].append(span)
            cell = self.per_op[span.op].setdefault(span.name, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += span.duration
            cell[2] += span.self_time

    def durations(self, *names: str) -> list[float]:
        return [s.duration for name in names for s in self.by_name.get(name, ())]

    def selfs(self, *names: str) -> list[float]:
        return [s.self_time for name in names for s in self.by_name.get(name, ())]

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name.get(name, ())) for name in names)

    def prefixed(self, prefix: str) -> list[str]:
        return [name for name in self.by_name if name.startswith(prefix)]

    def op_sums(self, field: int, *names: str) -> list[float]:
        """Per op that has any of *names*: the summed field (1 total, 2 self)."""
        out = []
        for cells in self.per_op:
            found = [cells[name][field] for name in names if name in cells]
            if found:
                out.append(sum(found))
        return out

    def per_commit(self, field: int, name: str) -> list[float]:
        """Per op, *name*'s summed field divided by the op's persists."""
        out = []
        for cells in self.per_op:
            persists = cells.get("storage.persist")
            if persists and name in cells:
                out.append(cells[name][field] / persists[0])
        return out


def _wire_closed(spans: list[Span], count: int) -> list[float]:
    """Per op: client wait minus the far side's busy window inside it.

    A reply is in the client's hands while the far side is still
    returning from its ``send`` (loopback delivers inside the sender's
    system call), and from then on the two run in parallel: the send is
    clipped to the end of the wait, so no instant is counted twice.
    """
    waits: list[list[Span]] = [[] for _ in range(count)]
    remote: list[list[Span]] = [[] for _ in range(count)]
    for span in spans:
        if span.op < 0:
            continue
        if _is_wait(span):
            waits[span.op].append(span)
        elif span.parent is None and span.role != "client":
            remote[span.op].append(span)
    wire = []
    for op_waits, op_remote in zip(waits, remote):
        op_remote.sort(key=lambda s: s.t0)
        total = 0.0
        for wait in op_waits:
            inside = [s for s in op_remote if wait.t0 <= s.t0 <= wait.t1]
            busy = 0.0
            if inside:
                for span in inside:
                    if span.name in ("net.send", "net.asend"):
                        span.t1 = min(span.t1, wait.t1)
                busy = min(max(s.t1 for s in inside), wait.t1) - inside[0].t0
            total += wait.duration - busy
        wire.append(total)
    return wire


def _wire_open(spans: list[Span], records) -> tuple[list[float], list[float]]:
    """Per op: (time between first send and reply outside the server's
    window, time from the due instant to the first send)."""
    first_send = {}
    window: dict[tuple, list[float]] = {}
    for span in spans:
        if span.op < 0 or span.key is None or span.parent is not None:
            continue
        if span.role == "client":
            if span.name == "net.asend":
                first_send[span.op] = min(first_send.get(span.op, span.t0), span.t0)
        else:
            bounds = window.setdefault(span.key, [span.t0, span.t1])
            bounds[0] = min(bounds[0], span.t0)
            bounds[1] = max(bounds[1], span.t1)
    wire, before = [], []
    for index, record in enumerate(records):
        sent = first_send.get(index)
        if sent is None:
            continue
        served = sum(
            window[tuple(key)][1] - window[tuple(key)][0]
            for key in record.keys if tuple(key) in window
        )
        wire.append(max(0.0, record.end - sent - served))
        before.append(max(0.0, sent - record.start))
    return wire, before


def _queue_waits(spans: list[Span]) -> list[float]:
    """Per request: admission end to ``Executor.apply`` start."""
    gate_end, waits = {}, []
    for span in sorted((s for s in spans if s.key is not None and s.op >= 0
                        and s.name in ("executor.gate", "executor.apply")),
                       key=lambda s: s.t0):
        if span.name == "executor.gate":
            gate_end[span.key] = span.t1
        elif span.key in gate_end:
            waits.append(max(0.0, span.t0 - gate_end.pop(span.key)))
    return waits


def _extras(spans) -> float:
    """The summed ``extra`` of *spans* (a call that raised recorded none)."""
    return sum(span.extra or 0 for span in spans)


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return (after or 0) - (before or 0)


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(workload: Workload, run, base_p50_ms: float, probes: dict,
            spin_before: float) -> dict:
    """Every per-layer metric of one traced pass, in catalogue order."""
    records, ops, spans = run.records, run.ops, run.spans
    count = len(records)
    assign_ops(spans, records, workload.loop)
    if workload.loop == "closed":
        wire, before_send = _wire_closed(spans, count), []
    else:
        wire, before_send = _wire_open(spans, records)
    table = Table(spans, count)
    op_time = sum(r.end - r.start for r in records)
    latencies = sorted(run.latencies_ms)
    raw_after, raw_before = run.after["raw"], run.before["raw"]
    us, ms = 1e6, 1e3
    med = probe.median

    queue_waits = _queue_waits(spans)

    # self time per layer; the client's waits are the far side's time
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.op >= 0 and not _is_wait(span):
            layer = span.name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += span.self_time
    layer_self["net"] += sum(wire)
    layer_self["frontdoor"] += sum(queue_waits)
    covered = sum(layer_self.values()) + sum(before_send)

    selects = table.calls("stdm.filter")
    runs = [s.extra for s in table.by_name.get("stdm.run", ()) if s.extra]
    examined = sum(extra[0] for extra in runs)
    returned = sum(extra[1] for extra in runs)
    probed = (_extras(table.by_name.get("directories.lookup", ()))
              + _extras(table.by_name.get("directories.range", ())))
    persists = table.calls("storage.persist")
    disk_bytes = run.after["disk_bytes"] - run.before["disk_bytes"]
    user_bytes = sum(op.user_bytes for op in ops)
    frontdoor = workload.topology == "frontdoor"
    door_requests = _delta(raw_after, raw_before, "frontdoor", "requests")
    shed = (_delta(raw_after, raw_before, "frontdoor", "shed_overload")
            + _delta(raw_after, raw_before, "frontdoor", "shed_deadline"))
    admitted = _delta(raw_after, raw_before, "admission", "admitted")
    refused = _delta(raw_after, raw_before, "admission", "shed")
    commits = _delta(raw_after, raw_before, "commits")
    aborts = _delta(raw_after, raw_before, "aborts")
    rpc_names = table.prefixed("shard.rpc.")
    tenth = max(1, count // 10)
    lat_in_order = run.latencies_ms
    client_sends = [s.duration for s in spans
                    if s.role == "client" and s.op >= 0
                    and s.name in ("net.send", "net.asend")]

    def cache_rate(name: str) -> float:
        return _rate(_delta(raw_after, raw_before, "caches", name, "hits"),
                     _delta(raw_after, raw_before, "caches", name, "misses"))

    def share(layer: str) -> float:
        return _ratio(layer_self[layer], op_time)

    values = {
        "net.wire_us_per_op": med(wire) * us,
        "net.client_send_us": med(client_sends) * us,
        "net.bytes_per_op": run.links[1] / count,
        "net.frames_per_op": run.links[0] / count,
        "net.self_share": share("net"),
        "frontdoor.queue_wait_p50_us": med(queue_waits) * us,
        "frontdoor.queue_wait_p99_us": probe.percentile(sorted(queue_waits), 0.99) * us,
        "frontdoor.shed_frac": _ratio(shed, door_requests),
        "frontdoor.replays": _delta(raw_after, raw_before, "frontdoor", "replays"),
        "frontdoor.self_share": share("frontdoor"),
        "govern.admit_us_per_request": med(table.durations("govern.admit_request")) * us,
        "govern.overloaded_frac": _ratio(refused, admitted + refused),
        "govern.self_share": share("govern"),
        "executor.decode_us": med(table.durations("executor.decode")) * us,
        "executor.gate_us": (med(table.durations("executor.lookup_replay"))
                             + med(table.durations("executor.gate"))) * us,
        "executor.apply_self_us": med(table.selfs("executor.apply")) * us,
        "executor.seal_us": med(table.durations("executor.seal")) * us,
        "executor.codec_us_per_op": med(table.op_sums(
            2, "executor.decode_frame", "executor.encode_result")) * us,
        "executor.self_share": share("executor"),
        "opal.compile_us_per_op": med(table.op_sums(1, "opal.compile")) * us,
        "opal.interpret_self_us_per_op": med(table.op_sums(2, "opal.execute")) * us,
        "opal.compile_share": _ratio(sum(table.durations("opal.compile")),
                                     sum(table.durations("opal.execute"))),
        "opal.method_cache_hit_rate": cache_rate("method_cache"),
        "opal.inline_cache_hit_rate": cache_rate("inline_cache"),
        "opal.translation_cache_hit_rate": cache_rate("translation_cache"),
        "opal.plan_cache_hit_rate": cache_rate("plan_cache"),
        "opal.self_share": share("opal"),
        "stdm.translate_us_per_select": med(table.durations("stdm.translate")) * us,
        "stdm.plan_us_per_select": med(table.durations("stdm.best_plan")) * us,
        "stdm.run_ms_per_select": med(table.selfs("stdm.run")) * ms,
        "stdm.rows_examined_per_result": _ratio(examined, returned),
        "stdm.plans_built_per_select": _ratio(
            _delta(raw_after, raw_before, "plans_built"), selects),
        "stdm.self_share": share("stdm"),
        "directories.probe_us": med(table.durations(
            "directories.lookup", "directories.range")) * us,
        "directories.probes_per_select": _ratio(table.calls(
            "directories.lookup", "directories.range"), selects),
        "directories.entries_per_result": _ratio(probed, returned),
        "directories.maintain_us_per_commit": med(
            table.durations("directories.on_commit")) * us,
        "directories.self_share": share("directories"),
        "concurrency.bind_us_per_write": med(table.durations("concurrency.bind")) * us,
        "concurrency.validate_us_per_commit": med(table.selfs(
            "concurrency.commit", "concurrency.prepare",
            "concurrency.commit_prepared")) * us,
        "concurrency.session_commit_ms": med(
            table.durations("concurrency.session_commit")) * ms,
        "concurrency.abort_frac": _ratio(aborts, commits + aborts),
        "concurrency.self_share": share("concurrency"),
        "storage.persist_ms_per_commit": med(table.durations("storage.persist")) * ms,
        "storage.encode_ms_per_commit": med(table.per_commit(1, "storage.encode")) * ms,
        "storage.encode_bytes_per_commit": _ratio(
            _extras(table.by_name.get("storage.encode", ())), persists),
        "storage.objects_encoded_per_commit": _ratio(
            table.calls("storage.encode"), persists),
        "storage.link_us_per_commit": med(table.durations("storage.link")) * us,
        "storage.box_us_per_commit": med(table.durations("storage.box")) * us,
        "storage.safewrite_us_per_commit": med(table.durations("storage.safewrite")) * us,
        "storage.tracks_written_per_commit": _ratio(
            table.calls("storage.write_track"), persists),
        "storage.disk_bytes_per_op": disk_bytes / count,
        "storage.write_amp": _ratio(disk_bytes, user_bytes),
        "storage.fsyncs_per_commit": _ratio(table.calls("storage.fsync"), persists),
        "storage.track_reads_per_op": table.calls("storage.read_track") / count,
        "storage.decode_us_per_miss": med(table.durations("storage.decode")) * us,
        "storage.cache_hit_rate": _rate(
            _delta(raw_after, raw_before, "storage", "cache_hits"),
            _delta(raw_after, raw_before, "storage", "cache_misses")),
        "storage.cache_evictions_per_op": _delta(
            raw_after, raw_before, "storage", "cache_evictions") / count,
        "storage.tracks_allocated_end": run.space[1],
        "storage.recover_ms": run.recover_ms,
        "storage.commit_size_ratio": probes.get("commit_size_ratio", 0.0),
        "storage.commit_history_ratio": _ratio(
            med(lat_in_order[-tenth:]), med(lat_in_order[:tenth])),
        "storage.self_share": share("storage"),
        "shard.route_us_per_stmt": med(table.durations("shard.route")) * us,
        "shard.exec_rpc_ms": med(table.durations("shard.rpc.SHARD_EXEC")) * ms,
        "shard.prepare_ms_per_op": med(table.op_sums(1, "shard.rpc.PREPARE")) * ms,
        "shard.decide_ms_per_op": med(table.op_sums(1, "shard.rpc.DECIDE")) * ms,
        "shard.decision_log_us_per_op": med(table.op_sums(
            1, "shard.log_record", "shard.log_forget")) * us,
        "shard.rpc_calls_per_op": table.calls(*rpc_names) / count,
        "shard.rpc_bytes_per_op": 0.0 if frontdoor else run.links[1] / count,
        "shard.worker_cpu_ms_per_op": 0.0 if frontdoor else run.cpu_s * ms / count,
        "shard.coordinator_cpu_ms_per_op": (
            0.0 if frontdoor else run.client_cpu_s * ms / count),
        "shard.commit_1shard_p50_ms": probes.get("commit_1shard_p50_ms", 0.0),
        "shard.self_share": share("shard"),
        "client.sched_late_p99_ms": probe.percentile(sorted(run.late), 0.99) * ms,
        "client.slo_miss_frac": (
            sum(1 for value in latencies if value > SLO_MS) / count
            if workload.loop == "open" else 0.0),
        "client.error_frac": (
            sum(1 for r in records if not r.ok) + run.mismatches) / count,
        "host.spin_ms_before": spin_before,
        "host.spin_ms_after": 0.0,  # filled in once the run is torn down
        "trace.overhead_frac": _ratio(probe.percentile(latencies, 0.5), base_p50_ms) - 1.0,
        "trace.coverage_frac": _ratio(covered, op_time),
    }
    return {m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in PER_LAYER}


# -- the traced run ----------------------------------------------------------


def _p50_ms(run, first=None) -> float:
    """Median op latency of a pass (of its *first* ops only, if given)."""
    return probe.percentile(sorted(run.latencies_ms[:first]), 0.5)


def traced_run(workload: Workload, seed: int, ops: list[Op], warm: int,
               seconds: float, workroot: str, counter, spin_before: float):
    """Base pass, side probes, then the watched pass; returns
    (per-layer metrics, [base pass, watched pass])."""
    from .harness import _make_rig, measure

    def one_pass(directory: str, pass_ops, tracer=None, bindings=None):
        traced = tracer is not None
        rig = _make_rig(workload, seed, os.path.join(workroot, directory),
                        traced, counter, bindings)
        try:
            rig.setup()
            run = measure(rig, workload, seed, pass_ops, warm, seconds, traced,
                          crash=traced)
            if traced:  # read the spans before the directory goes
                run.spans = load_spans(run.span_files + [tracer.dump(workroot)])
            return run
        finally:
            rig.destroy()

    # the same ops against an unwatched system: the overhead base
    base = one_pass("base", ops)
    probes = {}
    if workload.name == "commit_wide":
        small = one_pass("probe", commit_probe_ops(seed, len(ops), PROBE_BINDINGS),
                         bindings=PROBE_BINDINGS)
        # early ops only: every commit adds history, and 300 commits
        # are a far larger share of 500 bindings than of 2 000
        probes["commit_size_ratio"] = (_p50_ms(base, PROBE_OPS)
                                       / _p50_ms(small, PROBE_OPS))
    elif workload.name == "cluster_2pc":
        single = one_pass("probe", one_shard_ops(seed, len(ops), shards=1))
        probes["commit_1shard_p50_ms"] = _p50_ms(single)

    tracer = tracing.install("client")
    if workload.topology == "cluster":
        tracing.arm_fork_dump(tracer, os.path.join(workroot, "traced"))
    run = one_pass("traced", ops, tracer=tracer)
    metrics = compute(workload, run, _p50_ms(base), probes, spin_before)
    return metrics, [base, run]
