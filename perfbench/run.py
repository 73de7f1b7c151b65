#!/usr/bin/env python3
"""tabbench's benchmark: builds tabperf from the checkout, runs one workload
and prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout; --workload all runs every workload in
turn. The first run configures and builds a
Release tabperf under $CARGO_TARGET_DIR (default .bench_build)/perfbench;
later runs only check that the build is current. Workloads and metrics are
described in BENCHMARK.json. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the run repeats the workload with spans around every
layer call and reports the per-layer ones.

End-to-end times are scaled by the host's speed, measured between rounds
with a fixed calibration work (see CALIBRATION_S); the times as measured
and the scale factor are printed beside them and kept in the result record.
Per-layer metrics are as measured.

The last line is {"correct", "attempted", "failed", "metrics"}. A result
record with the environment fingerprint (nproc, CPU model, build type,
compiler, git rev) and the raw measurements is written beside the build, in
results/<workload>-<seed>-<trace>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("nref2j_protocol", "nref3j_protocol", "service_closed_loop",
             "mutation_churn")
BUILD_TYPE = "Release"
# End-to-end times are reported for a host on which tabperf's calibration
# work (see Calibration in common.h) takes this many seconds: each wall time
# is multiplied by this over the run's median calibration sample. On the
# 4-vCPU host the bounds were set on, run medians ranged from 38 to 69 ms
# within half an hour.
CALIBRATION_S = 0.06


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------- build
def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no tabbench sources under %s/src; run from a checkout's root"
             % root)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type != BUILD_TYPE:
        fail("refusing to record numbers from a %r build"
             % (build_type or "unoptimised"), 3)
    run_build_step(["cmake", "--build", out, "--target", "tabperf",
                    "-j", str(os.cpu_count() or 1)])
    return out, build_type


def run_build_step(cmd):
    # Build output goes to stderr: stdout's last line belongs to the result.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


# ------------------------------------------------------------ environment
def environment(root, build_type, binary_env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": build_type,
        "compiler": binary_env.get("compiler", "unknown"),
        "git_rev": git_rev(root),
    }


def git_rev(root):
    """HEAD's commit from .git without running git; 'unknown' outside a
    repository (benchmark checkouts usually are not one)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------- correctness
def claim_mismatches(workload, raw, expected):
    """Compares the paper-claim outputs of every pass or stream with the
    values recorded in expected.json; returns (checks, mismatch messages)."""
    checks, bad = 0, []
    if workload in ("nref2j_protocol", "nref3j_protocol"):
        want = expected[workload]
        passes = list(raw["claims"])
        if "traced" in raw:
            passes.append(raw["traced"]["claims"])
        for i, got in enumerate(passes):
            for key, value in want.items():
                checks += 1
                if got.get(key) != value:
                    bad.append("%s pass %d: %s is %r, recorded %r"
                               % (workload, i, key, got.get(key), value))
    elif workload == "mutation_churn":
        recorded = expected[workload][str(raw["variant"])]
        for k, got in enumerate(raw["claims"]):
            if k >= len(recorded):
                checks += 1
                bad.append("%s stream %d: no recorded expectations"
                           % (workload, k))
                continue
            for key, value in recorded[k].items():
                checks += 1
                if got.get(key) != value:
                    bad.append("%s stream %d: %s is %r, recorded %r"
                               % (workload, k, key, got.get(key), value))
    return checks, bad


# --------------------------------------------------------------- metrics
def metric(value, unit):
    return {"value": value, "unit": unit}


def host_scale(top):
    """Factor that turns this run's wall times into times on a host where
    the calibration work takes CALIBRATION_S."""
    return CALIBRATION_S / stats.percentile(top["calibration_s"], 50)


def end_to_end(top, scale):
    """Wall-time metrics, multiplied by `scale` (1 gives them as
    measured). A round's time is the sum of its steps' medians over the
    run's rounds. Where rounds do a fixed number of ops (protocol passes,
    churn streams), ops_per_s is that number over the median time of the
    steps that run them; the serving loop reports completions per wall
    second."""
    raw = top["raw"]
    steps = [r["steps_s"] for r in raw["rounds"]]
    if "ops_per_round" in raw:
        ops_per_s = raw["ops_per_round"] / stats.sum_of_medians(
            steps, raw["run_steps"])
    else:
        ops_per_s = raw["ops"] / raw["ops_wall_s"]
    return {
        "setup_s": metric(stats.percentile(raw["setup_s"], 50) * scale, "s"),
        "round_s": metric(stats.sum_of_medians(steps) * scale, "s"),
        "ops_per_s": metric(ops_per_s / scale, "1/s"),
        "peak_rss_mb": metric(top["peak_rss_mb"], "MiB"),
    }


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, req, beside, name, start, end = \
                line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent),
                          "request": int(req), "beside": beside == "1",
                          "name": name, "start": int(start),
                          "end": int(end)})
    return spans


LAYERS = ("core", "datagen", "stats", "sql", "optimizer", "advisor",
          "engine", "exec", "storage", "util", "service")


def per_layer(top):
    raw = top["raw"]
    tr = raw.get("traced", {})
    spans = read_spans(top["spans"])
    dur = {}
    for s in spans:
        dur.setdefault(s["name"], []).append((s["end"] - s["start"]) / 1e9)

    def med(name, scale):
        xs = dur.get(name)
        return stats.percentile(xs, 50) * scale if xs else 0.0

    def total(name):
        return sum(dur.get(name, ()))

    m = {
        "datagen.generate_s": metric(med("datagen.generate", 1), "s"),
        "stats.collect_s": metric(med("stats.collect", 1), "s"),
        "sql.parse_bind_us": metric(med("sql.parse_bind", 1e6), "us"),
        "optimizer.plan_us": metric(med("optimizer.plan", 1e6), "us"),
        "optimizer.whatif_us": metric(med("optimizer.whatif", 1e6), "us"),
        "advisor.recommend_s": metric(med("advisor.recommend", 1), "s"),
        "advisor.candidates": metric(tr.get("candidates", 0), "count"),
        "engine.apply_config_s": metric(total("engine.apply_config"), "s"),
        "engine.secondary_pages": metric(tr.get("secondary_pages", 0),
                                         "count"),
        "engine.index_build_step_us":
            metric(med("engine.index_build_step", 1e6), "us"),
        "storage.insert_us": metric(med("storage.insert", 1e6), "us"),
        "storage.update_us": metric(med("storage.update", 1e6), "us"),
        "storage.delete_us": metric(med("storage.delete", 1e6), "us"),
        "util.journal_append_us":
            metric(med("util.journal_append", 1e6), "us"),
        "core.read_run_ms": metric(med("core.read_run", 1e3), "ms"),
        "exec.pages_read": metric(tr.get("pages_read", 0), "count"),
        "exec.tuples_processed": metric(tr.get("tuples_processed", 0),
                                        "count"),
        "storage.pool_accesses": metric(tr.get("pool_accesses", 0), "count"),
        "storage.pool_hit_ratio": metric(
            tr["pool_hits"] / tr["pool_accesses"]
            if tr.get("pool_accesses") else 0.0, "ratio"),
    }

    # Query execution: median and the highest percentile with >= 10
    # samples beyond it, with the sample count.
    execs = [d * 1e3 for d in dur.get("exec.execute", ())]
    add_distribution(m, "exec.query_ms", execs, "ms")
    exec_total = total("exec.execute")
    inset_total = total("exec.inset")
    m["exec.inset_ms"] = metric(
        inset_total * 1e3 / len(execs) if execs else 0.0, "ms")
    m["exec.inset_share"] = metric(
        inset_total / exec_total if exec_total else 0.0, "ratio")

    # Serving: per-request latency (submit -> own completion), time not
    # spent executing, generator lateness and router counters.
    latencies = tr.get("latency_ms", [])
    add_distribution(m, "service.latency_ms", latencies, "ms")
    waits = tr.get("wait_ms", [])
    m["service.sojourn_minus_exec_ms"] = metric(
        stats.percentile(waits, 50) if waits else 0.0, "ms")
    lags = tr.get("lag_ms", [])
    lag_tail = stats.tail(lags) if lags else None
    m["service.generator_lag_ms"] = metric(lag_tail[1] if lag_tail else 0.0,
                                           "ms")
    for key in ("completed", "rejected", "shed", "failovers"):
        m["service." + key] = metric(tr.get("router_" + key, 0), "count")

    # Self time per layer, and the tracing overhead: the spans recorded
    # times what one span costs, over the traced run's wall time outside
    # the beside calls. wall_ratio compares that wall time with the
    # untraced run's; it mixes in run-to-run noise, so it is a cross-check.
    selfs = stats.layer_self_times(spans)
    for layer in LAYERS:
        m[layer + ".self_s"] = metric(selfs.get(layer, 0) / 1e9, "s")
    if "untraced_qps" in tr:
        main_path_s = tr["wall_s"]
        wall_ratio = tr["untraced_qps"] / tr["traced_qps"]
    else:
        beside = sum((s["end"] - s["start"]) / 1e9 for s in spans
                     if s["beside"] and not s["name"].startswith(
                         ("datagen.", "stats.")))
        main_path_s = tr["traced_pass_s"] - beside
        wall_ratio = main_path_s / tr["untraced_pass_s"]
    m["trace.spans"] = metric(top["span_count"], "count")
    m["trace.overhead_frac"] = metric(
        top["span_count"] * top["span_cost_ns"] / 1e9 / main_path_s, "ratio")
    m["trace.wall_ratio"] = metric(wall_ratio, "ratio")
    return m


def add_distribution(m, prefix, values, unit):
    t = stats.tail(values) if values else None
    m[prefix + "_p50"] = metric(
        stats.percentile(values, 50) if values else 0.0, unit)
    m[prefix + "_tail"] = metric(t[1] if t else 0.0, unit)
    m[prefix + "_tail_pct"] = metric(t[0] if t else 0.0, "pct")
    m[prefix + "_samples"] = metric(len(values), "count")


# ------------------------------------------------------------------ main
def run_one(root, out_dir, build_type, workload, seed, seconds, trace):
    """Runs one workload; prints its metric lines and returns
    (attempted, failed, metrics)."""
    runs = os.path.join(out_dir, "runs")
    results = os.path.join(out_dir, "results")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    cmd = [os.path.join(out_dir, "tabperf"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--out-dir", runs]
    if workload == "mutation_churn":
        # Run no more streams than have recorded expectations.
        recorded = expected[workload][str(seed % len(expected[workload]))]
        cmd += ["--max-streams", str(len(recorded))]
    # The loops finish their current pass after --seconds, and a traced run
    # adds a second pass or loop; set-up comes on top.
    timeout = 2 * seconds + 90
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("tabperf did not finish within %g s" % timeout)
    if r.returncode != 0:
        fail("tabperf exited with code %d" % r.returncode, r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("tabperf printed no result")
    top = json.loads(lines[-1])

    checks, mismatches = claim_mismatches(workload, top["raw"], expected)
    for msg in mismatches:
        print("perfbench: MISMATCH " + msg, file=sys.stderr)
    # The binary's own check failures are already counted in its "failed".
    attempted = top["attempted"] + checks
    failed = top["failed"] + len(mismatches)

    scale = host_scale(top)
    metrics = per_layer(top) if trace else end_to_end(top, scale)
    as_measured = end_to_end(top, 1.0)
    env = environment(root, build_type, top["env"])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "attempted": attempted,
              "failed": failed,
              "check_failures": top["check_failures"] + mismatches,
              "metrics": metrics, "host_scale": scale,
              "as_measured": as_measured,
              "calibration_s": top["calibration_s"], "raw": top["raw"]}
    with open(os.path.join(results, "%s-%d-%d.json" % (
            workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)

    print("perfbench %s env: %s" % (workload, json.dumps(env)))
    for name, m in metrics.items():
        print("perfbench %s %-32s %.6g %s" % (workload, name, m["value"],
                                              m["unit"]))
    print("perfbench %s %-32s %.6g (%d samples)" % (
        workload, "host_scale", scale, len(top["calibration_s"])))
    for name, m in as_measured.items():
        print("perfbench %s %-32s %.6g %s" % (
            workload, "as_measured." + name, m["value"], m["unit"]))
    print("perfbench %s %-32s %.6g (%d of %d)" % (
        workload, "failed_frac", failed / attempted, failed, attempted))
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.getcwd()
    out_dir, build_type = build(root)
    if args.workload != "all":
        attempted, failed, metrics = run_one(
            root, out_dir, build_type, args.workload, args.seed,
            args.seconds, args.trace)
    else:
        attempted, failed, metrics = 0, 0, {}
        for w in WORKLOADS:
            a, f, m = run_one(root, out_dir, build_type, w, args.seed,
                              args.seconds, args.trace)
            attempted += a
            failed += f
            metrics.update({w + "/" + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
