"""Names, units, directions and bounds: the benchmark's vocabulary.

``BENCHMARK.json`` at the repo root is this module written out
(``test_smoke.py`` checks the two agree).  Layer prefixes of the
per-layer metrics are the ``src/repro/`` package names.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the parent's median by which the metric may worsen
    #: (end-to-end only; per-layer metrics carry no bound)
    bound: float | None
    doc: str


#: what a host program sees; every workload reports every one
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "create store, load data, start the server process(es), log in "
           "(median of the run's set-ups, one per pass)"),
    Metric("op_p50_ms", "ms", "lower", 0.25,
           "median client-observed latency of one op, each op taken at its "
           "fastest over the run's passes (open loop: from the op's due time)"),
    Metric("op_p95_ms", "ms", "lower", 0.25,
           "95th percentile of the same sample (a pass is 110-4500 ops: about "
           "ten samples lie beyond it on the smallest)"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           "correct ops per second of the client's op cycles (mixed_open: ops "
           "correct within slo_ms of their due time, per measured second)"),
    Metric("server_cpu_ms_per_op", "ms", "lower", 0.25,
           "CPU of every server/worker process over the measured phase, per "
           "op; costed in 40 blocks, each at its cheapest over the passes"),
    Metric("disk_bytes_per_user_byte", "ratio", "lower", 0.02,
           "bytes handed to write_track on every platter since the store "
           "was created / UTF-8 bytes of every key+value the user wrote"),
    Metric("space_bytes_per_user_byte", "ratio", "lower", 0.05,
           "allocated tracks x track size at end of run / the same user "
           "bytes"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "peak resident set summed over server/worker processes"),
)

#: single layers, from the traced run; ``0`` where the layer is not called
PER_LAYER = (
    # -- net ---------------------------------------------------------------
    Metric("net.wire_us_per_op", "us", "lower", None,
           "client wait for replies minus the server's busy window"),
    Metric("net.client_send_us", "us", "lower", None,
           "client-side send() per frame"),
    Metric("net.bytes_per_op", "B", "lower", None,
           "bytes on the client's link, both directions, per op"),
    Metric("net.frames_per_op", "count", "lower", None,
           "frames on the client's link, both directions, per op"),
    Metric("net.self_share", "ratio", "lower", None,
           "net self time + wire / client op time"),
    # -- frontdoor ---------------------------------------------------------
    Metric("frontdoor.queue_wait_p50_us", "us", "lower", None,
           "admission end to Executor.apply start, median"),
    Metric("frontdoor.queue_wait_p99_us", "us", "lower", None,
           "the same, 99th percentile"),
    Metric("frontdoor.shed_frac", "ratio", "lower", None,
           "requests refused (overload or deadline) / requests"),
    Metric("frontdoor.replays", "count", "lower", None,
           "duplicates answered from the replay window"),
    Metric("frontdoor.self_share", "ratio", "lower", None,
           "queue wait / client op time"),
    # -- govern ------------------------------------------------------------
    Metric("govern.admit_us_per_request", "us", "lower", None,
           "AdmissionController.admit_request"),
    Metric("govern.overloaded_frac", "ratio", "lower", None,
           "requests shed by the leaky bucket or breaker / admitted+shed"),
    Metric("govern.self_share", "ratio", "lower", None,
           "govern self time / client op time"),
    # -- executor ----------------------------------------------------------
    Metric("executor.decode_us", "us", "lower", None, "Executor.decode per frame"),
    Metric("executor.gate_us", "us", "lower", None,
           "Executor.lookup_replay + gate per frame"),
    Metric("executor.apply_self_us", "us", "lower", None,
           "Executor.apply minus the engine and codec work under it"),
    Metric("executor.seal_us", "us", "lower", None, "Executor.seal per frame"),
    Metric("executor.codec_us_per_op", "us", "lower", None,
           "decode_frame + encode_result self time per op"),
    Metric("executor.self_share", "ratio", "lower", None,
           "executor self time / client op time"),
    # -- opal --------------------------------------------------------------
    Metric("opal.compile_us_per_op", "us", "lower", None,
           "Compiler.compile_source per op"),
    Metric("opal.interpret_self_us_per_op", "us", "lower", None,
           "OpalEngine.execute minus compile and the layers below"),
    Metric("opal.compile_share", "ratio", "lower", None,
           "compile time / OpalEngine.execute time"),
    Metric("opal.method_cache_hit_rate", "ratio", "higher", None, "perf_stats()"),
    Metric("opal.inline_cache_hit_rate", "ratio", "higher", None, "perf_stats()"),
    Metric("opal.translation_cache_hit_rate", "ratio", "higher", None, "perf_stats()"),
    Metric("opal.plan_cache_hit_rate", "ratio", "higher", None, "perf_stats()"),
    Metric("opal.self_share", "ratio", "lower", None,
           "opal self time / client op time"),
    # -- stdm --------------------------------------------------------------
    Metric("stdm.translate_us_per_select", "us", "lower", None,
           "BlockTranslator.translate"),
    Metric("stdm.plan_us_per_select", "us", "lower", None, "best_plan"),
    Metric("stdm.run_ms_per_select", "ms", "lower", None,
           "Plan.run minus directory probes"),
    Metric("stdm.rows_examined_per_result", "ratio", "lower", None,
           "QueryContext.examined / rows returned"),
    Metric("stdm.plans_built_per_select", "ratio", "lower", None,
           "planner work counter / selects"),
    Metric("stdm.self_share", "ratio", "lower", None,
           "stdm self time / client op time"),
    # -- directories -------------------------------------------------------
    Metric("directories.probe_us", "us", "lower", None,
           "Directory.lookup / Directory.range per probe"),
    Metric("directories.probes_per_select", "ratio", "lower", None, ""),
    Metric("directories.entries_per_result", "ratio", "lower", None,
           "oids returned by probes / rows the select returned"),
    Metric("directories.maintain_us_per_commit", "us", "lower", None,
           "DirectoryManager.on_commit"),
    Metric("directories.self_share", "ratio", "lower", None,
           "directories self time / client op time"),
    # -- concurrency -------------------------------------------------------
    Metric("concurrency.bind_us_per_write", "us", "lower", None,
           "SessionObjectManager.bind (copy_shell on first write)"),
    Metric("concurrency.validate_us_per_commit", "us", "lower", None,
           "TransactionManager.commit/prepare self time (validation, log)"),
    Metric("concurrency.session_commit_ms", "ms", "lower", None,
           "SessionObjectManager.commit, whole span"),
    Metric("concurrency.abort_frac", "ratio", "lower", None,
           "TransactionStats aborts / (commits + aborts)"),
    Metric("concurrency.self_share", "ratio", "lower", None,
           "concurrency self time / client op time"),
    # -- storage -----------------------------------------------------------
    Metric("storage.persist_ms_per_commit", "ms", "lower", None,
           "StableStore.persist, whole span"),
    Metric("storage.encode_ms_per_commit", "ms", "lower", None, "encode_object"),
    Metric("storage.encode_bytes_per_commit", "B", "lower", None, ""),
    Metric("storage.objects_encoded_per_commit", "count", "lower", None, ""),
    Metric("storage.link_us_per_commit", "us", "lower", None, "Linker.incorporate"),
    Metric("storage.box_us_per_commit", "us", "lower", None, "Boxer.pack"),
    Metric("storage.safewrite_us_per_commit", "us", "lower", None,
           "CommitManager.commit (track group + root flip)"),
    Metric("storage.tracks_written_per_commit", "count", "lower", None, ""),
    Metric("storage.disk_bytes_per_op", "B", "lower", None,
           "bytes handed to write_track in the measured phase / ops"),
    Metric("storage.write_amp", "ratio", "lower", None,
           "the same platter bytes / user bytes of those ops"),
    Metric("storage.fsyncs_per_commit", "count", "lower", None,
           "os.fsync calls (0: FileDisk never syncs)"),
    Metric("storage.track_reads_per_op", "count", "lower", None, ""),
    Metric("storage.decode_us_per_miss", "us", "lower", None, "decode_object"),
    Metric("storage.cache_hit_rate", "ratio", "higher", None,
           "ObjectCache hits / lookups in the measured phase"),
    Metric("storage.cache_evictions_per_op", "count", "lower", None, ""),
    Metric("storage.tracks_allocated_end", "count", "lower", None, ""),
    Metric("storage.recover_ms", "ms", "lower", None,
           "reopen the platters after SIGKILL (0 on SimulatedDisk)"),
    Metric("storage.commit_size_ratio", "ratio", "lower", None,
           "commit p50 at 2000 bindings / at 500 (commit_wide side probe)"),
    Metric("storage.commit_history_ratio", "ratio", "lower", None,
           "op p50 of the last decile of ops / of the first"),
    Metric("storage.self_share", "ratio", "lower", None,
           "storage self time / client op time"),
    # -- shard -------------------------------------------------------------
    Metric("shard.route_us_per_stmt", "us", "lower", None, "route_statement"),
    Metric("shard.exec_rpc_ms", "ms", "lower", None,
           "one SHARD_EXEC round trip through RequestChannel.request"),
    Metric("shard.prepare_ms_per_op", "ms", "lower", None,
           "PREPARE round trips per op (sent one shard after the other)"),
    Metric("shard.decide_ms_per_op", "ms", "lower", None, "DECIDE round trips per op"),
    Metric("shard.decision_log_us_per_op", "us", "lower", None,
           "DecisionLog.record_commit + forget"),
    Metric("shard.rpc_calls_per_op", "count", "lower", None, ""),
    Metric("shard.rpc_bytes_per_op", "B", "lower", None, ""),
    Metric("shard.worker_cpu_ms_per_op", "ms", "lower", None, "/proc/<pid>/stat"),
    Metric("shard.coordinator_cpu_ms_per_op", "ms", "lower", None,
           "CPU of the process holding the coordinator and the driver"),
    Metric("shard.commit_1shard_p50_ms", "ms", "lower", None,
           "one write + single-shard fast-path commit (side probe)"),
    Metric("shard.self_share", "ratio", "lower", None,
           "coordinator-side shard self time / client op time"),
    # -- the benchmark itself ----------------------------------------------
    Metric("client.sched_late_p99_ms", "ms", "lower", None,
           "open loop: how late the generator issued a request"),
    Metric("client.slo_miss_frac", "ratio", "lower", None,
           "open loop: ops later than slo_ms after their due time"),
    Metric("client.error_frac", "ratio", "lower", None,
           "ops raised, refused, wrong or lost over ops attempted"),
    Metric("host.spin_ms_before", "ms", "lower", None,
           "fixed pure-Python loop before the run (noise sentinel)"),
    Metric("host.spin_ms_after", "ms", "lower", None, "the same loop after"),
    Metric("trace.overhead_frac", "ratio", "lower", None,
           "traced / untraced op_p50_ms on identical ops, minus 1"),
    Metric("trace.coverage_frac", "ratio", "higher", None,
           "(layer self times + queue wait + wire) / client op time"),
)

#: layers whose ``<layer>.self_share`` is reported
LAYERS = ("net", "frontdoor", "govern", "executor", "opal", "stdm",
          "directories", "concurrency", "storage", "shard")

#: the workloads ``BENCHMARK.json`` lists, so the driver runs and gates
#: them: its 4 + 22 x workloads runs share 3420 s, and on a shared host
#: a run has to be long and made of many passes to be steady, so four
#: is what fits.  The other two run from the same command, ungated.
GATED = ("read_hot", "select_mix", "commit_wide", "cluster_2pc")

#: name -> one-line reason the workload exists (order = run order)
WORKLOADS = {
    "read_hot":
        "closed loop of point reads on a cached 2000-binding World: the "
        "net+frontdoor+executor+opal-compile floor; storage and stdm idle",
    "select_mix":
        "closed loop of declarative selects (indexed range, unindexed scan, "
        "selective probe) over 4000 cached objects: opal+stdm+directories",
    "commit_wide":
        "closed loop of one-binding write+COMMIT on a 2000-element World on "
        "FileDisk: whole-object encode and copy dominate (ROADMAP item 2)",
    "oltp_narrow_cold":
        "closed loop of read-modify-write+COMMIT on 8000 small indexed "
        "objects, cache holds a quarter: misses, narrow commits, index upkeep",
    "cluster_2pc":
        "closed loop of cross-shard commits on ProcCluster (2 forked workers, "
        "TCP, FileDisk): shard RPC, prepare/decide and the decision log",
    "mixed_open":
        "open loop at a fixed 600 req/s over 2 pipelined connections (80% "
        "reads, 10% selects, 10% commits): the only workload with a queue",
}

#: open-loop service-level objective: an op later than this after its
#: due time does not count towards goodput
SLO_MS = 20.0

#: today's flush policy, stated with every result
FLUSH_POLICY = ("FileDisk mirrors each track with os.pwrite and never "
                "fsyncs: survives SIGKILL, not power loss")


def benchmark_json(run_seconds: int) -> dict:
    """The contract document for the repo root."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": WORKLOADS[name]} for name in GATED
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
