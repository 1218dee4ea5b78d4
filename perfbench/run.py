#!/usr/bin/env python3
"""The DistCache benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static_zipf --seed 1 --seconds 15 --trace 0

The first run builds perfbench_harness (perfbench/CMakeLists.txt) from the
checkout's sources into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset. It then runs closed-loop trials, each in its own process,
until --seconds have passed: a trial is MakeSimBackend followed by one
SimBackend::Run, and the next starts only when it has ended. Afterwards it runs
the workload's reference engine and checks every trial against it.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json
(medians over the trials). With --trace 1 it alternates traced and untraced
trials, replays each layer (layers.cc), and carries the per-layer metrics;
the spans go to a Chrome trace-event file under the build directory, which
Perfetto opens offline. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count trials. Lines above it give quartiles, trial
counts, checks and the host fingerprint; the build directory also keeps the
whole report as JSON under results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("static_zipf", "shift_realloc", "memwall_100m")
# The workloads on the single-threaded sequential engine (workloads.h).
SEQUENTIAL = ("memwall_100m",)
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 150
# sim_backend.h contract 4, as tests/sim/sim_backend_test.cc applies it.
HIT_RATIO_TOLERANCE = 0.02
IMBALANCE_TOLERANCE = 0.05


def log(msg):
    print(msg, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the harness; returns its path (exits on failure)."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench_harness")


def cpu_ticks():
    """(steal, idle, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return (0, 0, 0)
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return (steal, idle, sum(fields[:8]))


def harness_json(cmd, fatal=True, cpu=None):
    """Runs one harness job, on `cpu` alone when given, and returns its JSON
    line. On failure it exits, or with fatal=False returns {"crashed": reason}."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=TRIAL_TIMEOUT_S, cwd=ROOT,
                              preexec_fn=pin)
        reason = "exit code %d" % proc.returncode
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        sys.stderr.write(proc.stderr[-4000:])
    except subprocess.TimeoutExpired:
        reason = "timed out"
    except (ValueError, IndexError):
        reason = "unreadable report"
    if fatal:
        sys.exit("perfbench: %s: %s" % (" ".join(cmd[1:]), reason))
    return {"crashed": reason, "spans": []}


def run_trial(harness, workload, seed, traced, cpu):
    before = cpu_ticks()
    start_ns = time.monotonic_ns()
    trial = harness_json([harness, "trial", workload, str(seed),
                          "1" if traced else "0"], fatal=False, cpu=cpu)
    trial["process_span"] = (start_ns, time.monotonic_ns())
    after = cpu_ticks()
    total = max(after[2] - before[2], 1)
    trial["steal_frac"] = (after[0] - before[0]) / total
    trial["idle_frac"] = (after[1] - before[1]) / total
    trial["traced"] = traced
    trial["cpu"] = cpu
    return trial


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_trials(workload, trials, reference):
    """Marks each trial's failed checks in place; returns the failure count."""
    digests = {t["digest"] for t in trials if "crashed" not in t}
    failed = 0
    for t in trials:
        if "crashed" in t:
            t["problems"] = ["crashed: " + t["crashed"]]
            failed += 1
            continue
        problems = list(t["failed_checks"])
        ref_hit, ref_imb = reference["hit_ratio"], reference["cache_imbalance"]
        if t["hit_ratio"] is None or \
                abs(t["hit_ratio"] - ref_hit) > HIT_RATIO_TOLERANCE * ref_hit:
            problems.append("hit_ratio_vs_reference")
        if t["cache_imbalance"] is None or \
                abs(t["cache_imbalance"] - ref_imb) > IMBALANCE_TOLERANCE * ref_imb:
            problems.append("cache_imbalance_vs_reference")
        if workload in SEQUENTIAL and len(digests) != 1:
            problems.append("digest_differs_across_trials")
        t["problems"] = problems
        failed += 1 if problems else 0
    return failed


def fingerprint(harness):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = harness_json([harness, "fingerprint"])
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "kernel": platform.release()}


def summarize(name, values, unit):
    q1, med, q3 = quartiles(values)
    log("  %-34s %14.6g %-8s q1 %.6g  q3 %.6g  n=%d" %
        (name, med, unit, q1, q3, len(values)))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(trials, layers):
    """Per-layer metrics: the replays plus what the traced trials report."""
    traced = [t for t in trials if t["traced"]]
    untraced = [t for t in trials if not t["traced"]]
    m = dict(layers)

    def med(fn, rows=traced):
        return statistics.median(fn(t) for t in rows)

    mreq = lambda t: t["requests"] / 1e6
    m["sim.ring_messages_per_mreq"] = med(lambda t: t["ring_messages"] / mreq(t))
    m["sim.cross_shard_messages_per_mreq"] = med(
        lambda t: t["cross_shard_messages"] / mreq(t))
    m["sim.uncontended_receive_frac"] = med(
        lambda t: t["uncontended_receives"] /
        max(t["uncontended_receives"] + t["contended_receives"], 1))
    m["sim.run_overhead_s"] = med(lambda t: t["run_s"] - t["wall_seconds"])
    for key, name in (("failed_shards", "sim.failed_shards"),
                      ("respawned_shards", "sim.respawned_shards"),
                      ("heartbeat_misses", "runtime.heartbeat_misses"),
                      ("controller_failovers", "sim.controller_failovers")):
        m[name] = sum(t[key] for t in trials)
    loop_ns = med(lambda t: t["wall_seconds"] * t["shards"] / t["requests"] * 1e9)
    m["sim.unexplained_ns"] = loop_ns - (m["common.sample_ns"] +
                                         m.pop("bench.engine_core_ns"))
    traced_mrps = med(lambda t: t["throughput_mrps"])
    m["bench.traced_throughput_mrps"] = traced_mrps
    m["bench.tracing_overhead_mrps"] = traced_mrps - med(
        lambda t: t["throughput_mrps"], untraced)
    m["bench.setup_layers_share"] = m["bench.setup_layers_s"] / med(
        lambda t: t["setup_s"], trials)
    m["bench.setup_share"] = med(
        lambda t: t["setup_s"] / (t["setup_s"] + t["run_s"]), trials)
    m["bench.probe_ns"] = med(lambda t: t["probe_ns"], trials)
    return m


def write_trace(path, trials, layers_span, layers_out):
    """Chrome trace-event JSON: one process span per trial (and one for the
    layer replays), with the spans that process recorded as its children."""
    events = []
    next_id = 1

    def add(name, start_ns, end_ns, tid, parent, trial):
        nonlocal next_id
        span_id = next_id
        next_id += 1
        events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                       "ts": start_ns / 1000.0,
                       "dur": max(end_ns - start_ns, 0) / 1000.0,
                       "args": {"id": span_id, "parent": parent,
                                "trial": trial}})
        return span_id

    def add_process(name, span, spans, tid, trial):
        root = add(name, span[0], span[1], tid, 0, trial)
        ids = {0: root}
        for s in spans:
            ids[s["id"]] = add(s["name"], s["start_ns"], s["end_ns"], tid,
                               ids.get(s["parent"], root), trial)

    for i, t in enumerate(trials):
        add_process("trial" + (" (traced)" if t["traced"] else ""),
                    t["process_span"], t["spans"], i + 1, i)
    add_process("layer replays", layers_span, layers_out["spans"], 0, -1)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    harness = build()
    host = fingerprint(harness)
    log("perfbench %s seed=%d trace=%d host: %s" %
        (args.workload, args.seed, args.trace, json.dumps(host)))

    # Closed loop: one trial at a time. The traced run alternates traced and
    # untraced trials so their difference is the tracing overhead. Trials of
    # the single-threaded workloads are pinned to the CPUs in turn: on a
    # shared host the CPUs run at different speeds that drift over minutes,
    # and a run that left the choice to the scheduler would measure whichever
    # CPU it favoured. The parallel engines use every CPU at once.
    cpus = sorted(os.sched_getaffinity(0))
    trials = []
    deadline = time.monotonic() + args.seconds * (0.5 if args.trace else 1.0)
    min_trials = 2 * MIN_TRIALS if args.trace else MIN_TRIALS
    while len(trials) < min_trials or time.monotonic() < deadline:
        traced = bool(args.trace) and len(trials) % 2 == 0
        cpu = cpus[len(trials) % len(cpus)] if args.workload in SEQUENTIAL \
            else None
        trials.append(run_trial(harness, args.workload, args.seed, traced, cpu))

    reference = harness_json([harness, "reference", args.workload,
                              str(args.seed)])
    failed = check_trials(args.workload, trials, reference)
    log("trials: %d (%d failed checks); reference engine: hit_ratio %.6g, "
        "cache_imbalance %.6g" % (len(trials), failed, reference["hit_ratio"],
                                  reference["cache_imbalance"]))
    for i, t in enumerate(trials):
        log("  trial %2d%s: %s, steal %.3f, idle %.3f%s"
            % (i, " traced" if t["traced"] else "",
               "crashed" if "crashed" in t else
               "%.4g Mreq/s, setup %.4g s, probe %.4g ns" %
               (t["throughput_mrps"], t["setup_s"], t["probe_ns"]),
               t["steal_frac"], t["idle_frac"],
               "" if not t["problems"] else ", FAILED " + ",".join(t["problems"])))
    # Crashed trials count as failed; the figures come from the rest.
    ran = [t for t in trials if "crashed" not in t]
    if not ran or (args.trace and not all(any(t["traced"] == x for t in ran)
                                          for x in (True, False))):
        sys.exit("perfbench: too few trials completed")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "reference": reference, "trials": trials}
    metrics = {}
    out_dir = build_dir()
    if args.trace:
        layers_start = time.monotonic_ns()
        layers_out = harness_json([harness, "layers", args.workload,
                                   str(args.seed),
                                   str(max(t["arena_bytes"] for t in ran))])
        layers_span = (layers_start, time.monotonic_ns())
        values = layer_metrics(ran, layers_out["metrics"])
        log("per-layer (traced run):")
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            log("  %-34s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(out_dir, "traces", "%s-seed%d.json" %
                                  (args.workload, args.seed))
        write_trace(trace_path, trials, layers_span, layers_out)
        log("trace: %s" % os.path.relpath(trace_path, ROOT))
        report["layers"] = values
    else:
        log("end-to-end (median over trials, untraced):")
        report["summary"] = {}
        # The raw throughput and the host probe behind throughput_per_probe
        # go to the log and the report, not the result line.
        for m in wanted + [{"name": "throughput_mrps", "unit": "Mreq/s"},
                           {"name": "probe_ns", "unit": "ns/iter"}]:
            values = [t[m["name"]] for t in ran if t[m["name"]] is not None]
            if not values:
                sys.exit("perfbench: no finite value for " + m["name"])
            report["summary"][m["name"]] = summarize(m["name"], values,
                                                     m["unit"])
            if m in wanted:
                metrics[m["name"]] = {
                    "value": report["summary"][m["name"]]["median"],
                    "unit": m["unit"]}

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(trials),
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
