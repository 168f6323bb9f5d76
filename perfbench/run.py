#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_replay --seed 1 --seconds 10 --trace 0

Builds perfbench (and the icgkit library from this checkout's sources)
into .bench_build/perfbench on first use, runs one workload, and prints
the benchmark's report; the last line of standard output is the result
JSON object. Other modes:

    --workload all          run fleet_replay, server_realtime and device_q31 in turn
    --self-test             build and run the harness's own tests
    --compare A.json B.json compare two saved results (flags fingerprint mismatches)

Every run's result, with its host/build fingerprint, is saved under
.bench_build/results/; traced runs write their spans (Chrome trace-event
JSON, open in Perfetto or chrome://tracing) under .bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fleet_replay", "server_realtime", "device_q31"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs one workload; echoes its report; returns the exit code."""
    exe = os.path.join(BUILD, "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 124
    out = proc.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    result, fingerprint = None, None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    if result is None:
        # No result line: show what there is on stderr, print no result.
        log(out)
        log("perfbench: %s produced no result line (exit %d)" % (workload, proc.returncode))
        return proc.returncode or 1
    declared = declared_metrics(trace)
    if declared is not None and set(result.get("metrics", {})) != declared:
        got = set(result.get("metrics", {}))
        log(out)
        log("perfbench: %s metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (workload, sorted(declared - got), sorted(got - declared)))
        return 1
    print(out, flush=True)
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" % (workload, seed, 1 if trace else 0))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "fingerprint": fingerprint, "result": result}, f, indent=1)
    return proc.returncode


def compare(a_path, b_path):
    """Prints per-metric changes B vs A; exit 3 when fingerprints differ."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    differs = a.get("fingerprint") != b.get("fingerprint")
    if differs:
        print("WARNING: host/build fingerprints differ; these numbers are not comparable")
        for key in sorted(set(a.get("fingerprint") or {}) | set(b.get("fingerprint") or {})):
            va = (a.get("fingerprint") or {}).get(key)
            vb = (b.get("fingerprint") or {}).get(key)
            if va != vb:
                print("  %s: %r -> %r" % (key, va, vb))
    if a.get("workload") != b.get("workload"):
        print("WARNING: different workloads (%s vs %s)" % (a.get("workload"), b.get("workload")))
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(set(ma) & set(mb)):
        va, vb = ma[name]["value"], mb[name]["value"]
        rel = (vb - va) / va * 100.0 if va else float("nan")
        print("%-32s %16.6g -> %-16.6g %-10s %+8.2f%%" % (name, va, vb, ma[name]["unit"], rel))
    return 3 if differs else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    if not build("perfbench"):
        log("perfbench: build failed")
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        code = run_one(name, args.seed, args.seconds, args.trace == 1)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
