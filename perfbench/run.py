"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 42 --seconds 30 --trace 0

The workload repeats fresh iterations (set-up plus timed work) for
``--seconds`` and reports medians over them, with host times rescaled to
a reference host speed (see :func:`reference_s`).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds one traced iteration and prints
the per-layer split instead.  Every iteration's output is checked; a
failed check counts into ``failed``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Spans of a traced run go to ``.perfbench/spans-<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: The seed results are quoted at, and one held out for confirming a
#: claimed gain on inputs its author did not tune against.
DEFAULT_SEED = 42
HELD_OUT_SEED = 20061025

#: Fewest iterations a run medians over, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

#: Host seconds one :func:`reference_chunk` takes at the reference host
#: speed (an undisturbed 2.1 GHz Xeon vCPU).  Host times are rescaled to
#: it: other load on the host slows the program and the chunk alike.
REFERENCE_S = 0.005

#: Chunks timed before and after each iteration; their median is used.
REFERENCE_CHUNKS = 5

#: Layers each workload is predicted to leave idle (every metric 0).
IDLE = {
    "census": ("faults", "vantage", "runtime", "obs", "service",
               "warehouse"),
    "fleet_mda": ("service", "warehouse"),
    "monitor_archive": (),
}


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure ({src}/repro missing)")
    sys.path.insert(0, src)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node):
        self.key, self.value, self.next = key, value, next_node


def reference_chunk(n: int = 6000) -> int:
    """Fixed interpreter-bound work: a dict, small objects, a linked list,
    a heap and a sort, the operations the program's hot paths use.

    It calls nothing from the program, so no change to the program can
    change its cost.
    """
    table, heap, head = {}, [], None
    for i in range(n):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        head = _Node(key, i, head)
        heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)
    total = 0
    while head is not None:
        total += head.value
        head = head.next
    return total + len(sorted(table.items(), key=lambda kv: kv[1]))


def reference_s() -> float:
    """Median host seconds of one :func:`reference_chunk` right now.

    The garbage collector is off while it runs, so the program's heap
    does not change the reference's cost.
    """
    gc.collect()
    gc.disable()
    try:
        times = []
        for __ in range(REFERENCE_CHUNKS):
            started = time.perf_counter()
            reference_chunk()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _warehouse(iterations) -> tuple[float, list[float]]:
    """Median ingest rows/s and every query latency (ms) of a run."""
    rates = [it.rows / it.ingest_s for it in iterations if it.rows]
    return _median(rates), [ms for it in iterations for ms in it.query_ms]


def measure(workload, seed: int, seconds: float, trace: bool = False,
            out_dir: str = OUT_DIR) -> dict:
    """Run ``workload`` for ``seconds``; return the result object."""
    os.makedirs(out_dir, exist_ok=True)
    from workloads import SETUP_BUDGET_S, expected_signature

    ctx = workload.prepare({"seed": seed, "workdir": out_dir,
                            "setup_budget_s": SETUP_BUDGET_S})
    iterations, slowdown = [], []
    started = time.perf_counter()
    while (len(iterations) < MIN_ITERATIONS
           or time.perf_counter() - started < seconds):
        before = reference_s()
        iterations.append(workload.iterate(ctx))
        # Host seconds per reference second around this iteration.
        slowdown.append((before + reference_s()) / 2 / REFERENCE_S)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    traced = recorder = None
    if trace:
        from tracing import Recorder

        run_id = f"{workload.name}-{seed}-{os.getpid()}-{time.time_ns()}"
        recorder = Recorder(run_id, out_dir)
        recorder.install()
        try:
            # One set-up build, so set-up spans describe a single one.
            traced = workload.iterate(dict(ctx, setup_budget_s=0.0))
        finally:
            recorder.uninstall()
        recorder.collect()
        recorder.write(os.path.join(
            out_dir, f"spans-{workload.name}-{seed}.jsonl.gz"))

    attempted = failed = 0
    first = iterations[0].signature
    recorded = expected_signature(workload, seed)
    for it in iterations + ([traced] if traced else []):
        checks = dict(it.checks, same_signature=it.signature == first)
        if recorded is not None:
            checks["recorded_signature"] = it.signature == recorded
        attempted += it.operations + len(checks)
        failed += it.operations_failed + sum(
            1 for passed in checks.values() if not passed)

    # Host times in reference seconds: the host's speed changes by up to
    # 2x over minutes, and the program and the reference chunk slow alike.
    end_to_end = {
        "traces_per_s": (_median([it.traces / it.work_s * slow
                                  for it, slow in zip(iterations, slowdown)]),
                         "1/s"),
        "probes_per_trace": (_median([it.probes / it.traces
                                      for it in iterations]), "count"),
        "sim_s_per_trace": (_median([it.sim_trace_s / it.traces
                                     for it in iterations]), "s"),
        "setup_s": (_median([s / slow
                             for it, slow in zip(iterations, slowdown)
                             for s in it.setup_samples]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "iterations": iterations,
        "slowdown": slowdown,
        "traced": traced,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": (layer_metrics(recorder, traced, iterations)
                      if trace else None),
    }


def layer_metrics(recorder, traced, untraced) -> dict:
    """Per-layer metrics of the traced iteration, ``name -> (value,
    unit)``; warehouse rates and latencies come from the untraced
    iterations."""
    from tracing import QUERY_NAMES, inclusive_times, self_times

    spans = recorder.spans
    c = recorder.counts
    own = self_times(spans)
    total = inclusive_times(spans)

    def self_s(layer):
        return sum(v for k, v in own.items() if k.split(".")[0] == layer)

    def span_s(*names):
        return sum(total.get(name, 0.0) for name in names)

    wire = c["sim.probes_submitted"] + c["sim.injects"]
    shard_run = max((end - start for __, __, __, name, start, end in spans
                     if name == "vantage.run"), default=0.0)
    execute = span_s("runtime.execute")
    ingest_rate, latencies = _warehouse(untraced)
    baseline = _median([it.wall_s for it in untraced])
    m = {
        "topology.generate_s": (span_s("topology.generate_internet"), "s"),
        "measurement.prescreen_s": (
            span_s("measurement.select_pingable_destinations"), "s"),
        "net.packets_built": (c["net.packets_built"], "count"),
        "net.packets_parsed": (c["net.packets_parsed"], "count"),
        "net.builds_per_probe": (_ratio(c["net.packets_built"], wire),
                                 "1/probe"),
        "net.self_s": (self_s("net"), "s"),
        "sim.submits": (c["sim.submits"], "count"),
        "sim.probes_submitted": (c["sim.probes_submitted"], "count"),
        "sim.injects": (c["sim.injects"], "count"),
        "sim.lpm_lookups": (c["sim.lpm_lookups"], "count"),
        "sim.lookups_per_probe": (_ratio(c["sim.lpm_lookups"], wire),
                                  "1/probe"),
        "sim.self_s": (self_s("sim"), "s"),
        "faults.applies": (c["faults.applies"], "count"),
        "faults.self_s": (self_s("faults"), "s"),
        "engine.sends": (c["engine.sends"], "count"),
        "engine.polls": (c["engine.polls"], "count"),
        "engine.empty_poll_ratio": (
            _ratio(c["engine.empty_polls"], c["engine.polls"]), "ratio"),
        "engine.self_s": (self_s("engine"), "s"),
        "probing.steps": (c["probing.steps"], "count"),
        "probing.timeouts": (c["probing.timeouts"], "count"),
        "probing.reply_ratio": (
            _ratio(c["probing.replies"], c["engine.sends"]), "ratio"),
        "probing.self_s": (self_s("probing"), "s"),
        "tracer.builds": (c["tracer.builds"], "count"),
        "tracer.matches": (c["tracer.matches"], "count"),
        "tracer.self_s": (self_s("tracer"), "s"),
        "measurement.run_s": (span_s("measurement.run"), "s"),
        "core.stats_s": (span_s("core.compute_loop_statistics",
                                "core.compute_cycle_statistics",
                                "core.compute_diamond_statistics"), "s"),
        "vantage.run_s": (shard_run, "s"),
        "vantage.merge_s": (span_s("vantage.merge"), "s"),
        "vantage.demux_deliveries": (c["vantage.demux_deliveries"], "count"),
        "runtime.execute_s": (execute, "s"),
        "runtime.wait_s": (span_s("runtime.wait"), "s"),
        "runtime.overhead_s": (execute - shard_run if execute else 0.0, "s"),
        "runtime.attempts": (c["runtime.attempts"], "count"),
        "runtime.retries": (c["runtime.retries"], "count"),
        "runtime.task_bytes": (c["runtime.task_bytes"], "bytes"),
        "runtime.result_bytes": (c["runtime.result_bytes"], "bytes"),
        "obs.snapshot_s": (span_s("obs.snapshot"), "s"),
        "obs.series": (c["obs.series"], "count"),
        "service.run_s": (span_s("service.run_monitor"), "s"),
        "service.feeds": (c["service.feeds"], "count"),
        "service.detect_s": (span_s("service.feed"), "s"),
        "service.alerts_s": (span_s("service.build_alert_log"), "s"),
        "warehouse.ingest_s": (span_s("warehouse.ingest_monitor"), "s"),
        "warehouse.rows": (c["warehouse.rows"], "count"),
        "warehouse.digest_s": (span_s("warehouse.content_digest"), "s"),
    }
    for query in QUERY_NAMES:
        m[f"warehouse.query_s.{query}"] = (span_s(f"warehouse.{query}"), "s")
    m.update({
        "warehouse.ingest_rows_per_s": (ingest_rate, "1/s"),
        "warehouse.query_calls": (len(latencies), "count"),
        "warehouse.query_p50_ms": (
            _percentile(latencies, 50), "ms"),
        "warehouse.query_p90_ms": (
            _percentile(latencies, 90), "ms"),
        "tracing.spans": (len(spans), "count"),
        "tracing.overhead_ratio": (_ratio(traced.wall_s, baseline), "ratio"),
    })
    return m


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def idle_report(workload: str, metrics: dict) -> list[tuple[str, float, bool]]:
    """``(layer, largest |metric|, reads zero)`` for each predicted-idle
    layer."""
    rows = []
    for layer in IDLE[workload]:
        values = [abs(v) for name, (v, __) in metrics.items()
                  if name.split(".")[0] == layer]
        rows.append((layer, max(values), not any(values)))
    return rows


def print_report(result: dict) -> None:
    its = result["iterations"]
    name = result["workload"]
    first = its[0]
    print(f"# perfbench {name}  seed={result['seed']} (default "
          f"{DEFAULT_SEED}, held out {HELD_OUT_SEED})  "
          f"iterations={len(its)}")
    print(f"#   per iteration: {first.traces} traces, "
          f"{first.target_rounds} target-rounds, {first.probes} probes, "
          f"simulated makespan {first.sim_makespan_s:.2f} s")
    # Over the monitor phase alone where the timed work has one.
    rounds_per_s = _median([it.target_rounds / (it.monitor_s or it.work_s)
                            for it in its])
    print(f"#   target_rounds_per_s median {rounds_per_s:.1f}")
    for label, values in (
            ("host work_s", [it.work_s for it in its]),
            ("host setup_s", [it.setup_s for it in its]),
            ("host slowdown", result["slowdown"])):
        print(f"#   {label}: " + " ".join(f"{v:.3f}" for v in values))
    ingest_rate, latencies = _warehouse(its)
    if latencies:
        print(f"#   warehouse: {first.rows} rows, ingest "
              f"{ingest_rate:.0f} rows/s;"
              f" query p50 {_percentile(latencies, 50):.3f} ms, "
              f"p90 {_percentile(latencies, 90):.3f} ms "
              f"over {len(latencies)} calls")
    metrics = result["per_layer"]
    if metrics is not None:
        for metric, (value, unit) in metrics.items():
            print(f"#   {metric:40s} {value:14.6g} {unit}")
        for layer, value, zero in idle_report(name, metrics):
            verdict = "reads 0 as predicted" if zero else (
                f"NOT idle (largest metric {value:.6g}), predicted 0")
            print(f"#   idle check {layer:10s} {verdict}")
    print(f"#   checks: {result['attempted'] - result['failed']}/"
          f"{result['attempted']} operations ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     trace=bool(args.trace))
    print_report(result)
    metrics = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
