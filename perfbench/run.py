#!/usr/bin/env python3
"""Build and run the NVAlloc end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload alloc_churn --seed 1 \\
        --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --self-test

BENCHMARK.json gates kv_update_heavy and alloc_churn; kv_read_mostly
runs by name (and under "all") but is not gated (see README.md).

The first call configures and builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to stderr.

A run is a series of trials, each its own nvbench process (fresh
address-space layout and thread placement), started until --seconds
have passed and at least MIN_TRIALS ran. A trial has a fixed op count,
so a faster program runs more trials, never longer ones. Every figure
reported is the median over the run's trials. With --trace 1 the trials
alternate untraced and traced: per-layer figures come from the traced
ones, tail percentiles from the untraced ones, and trace.overhead_pct
compares the two; the last traced trial's spans are written to
<build dir>/trace-<workload>-seed<N>.json (Chrome trace-event format).

The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Exit status is non-zero when the build fails, a
correctness check or a zero-work guard fails, or a trial crashes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv_update_heavy", "alloc_churn", "kv_read_mostly"]
# setup_s is a median of at least this many set-ups (per trial kind).
MIN_TRIALS = 3
# No trial starts unless the longest one so far still ends by then, so
# a run stays well inside its three-minute limit.
RUN_BUDGET_S = 150
TRIAL_TIMEOUT_S = 120
# Per-layer tail percentiles come from untraced trials: spans inflate
# exactly the slow calls these measure.
UNTRACED_LAYER_METRICS = {"kv.get.p999_us", "alloc.large.p99_us"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build; returns the binary's path or None."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
            return None
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "nvbench")


def run_trial(binary, workload, seed, index, traced, extra=()):
    """One nvbench process; returns (exit code, stdout, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trial", str(index), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (workload, seed))]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s trial %d timed out" % (workload, index),
              file=sys.stderr)
        return 1, "", None
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    return p.returncode, p.stdout, res


def median_of(results, group):
    """{name: (median value, unit)} over the trials' `group` dicts; a
    name counts only the trials that report it."""
    out = {}
    for r in results:
        for name, (_, unit) in r[group].items():
            out.setdefault(name, unit)
    return {name: (statistics.median(r[group][name][0] for r in results
                                     if name in r[group]), unit)
            for name, unit in out.items()}


def print_table(title, metrics):
    print("# " + title)
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.4f %s" % (name, value, unit))


def run_workload(binary, workload, seed, seconds, trace):
    """Run trials, print the report; returns the exit status."""
    start = time.monotonic()
    longest = 0.0
    plain, traced = [], []
    attempted = failed = 0
    correct = True
    index = 0
    while True:
        is_traced = trace == 1 and index % 2 == 1
        t0 = time.monotonic()
        rc, out, res = run_trial(binary, workload, seed, index, is_traced)
        longest = max(longest, time.monotonic() - t0)
        if res is None:
            sys.stderr.write(out)
            print("perfbench: %s trial %d printed no result (exit %d)" %
                  (workload, index, rc), file=sys.stderr)
            return 1
        attempted += res["attempted"]
        failed += res["failed"]
        e2e = res["e2e"]
        print("perfbench: %s trial %d%s: setup %.3f s, %.1f kops/s" %
              (workload, index, " traced" if is_traced else "",
               e2e["setup_s"][0], e2e["throughput_kops"][0]),
              file=sys.stderr)
        (traced if is_traced else plain).append(res)
        if rc != 0 or not res["ok"]:
            correct = False
            for why in res["errors"]:
                print("CHECK FAILED: %s trial %d: %s" % (workload, index, why))
            break
        index += 1
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_TRIALS and (
            trace == 0 or len(traced) >= MIN_TRIALS)
        if enough and elapsed >= seconds:
            break
        if elapsed + longest > RUN_BUDGET_S:
            if not enough:
                print("perfbench: %s: trials too long for the run budget" %
                      workload, file=sys.stderr)
                correct = False
            break

    if correct and not plain:
        correct = False
    if not correct:
        # Figures of a failed run are not results; report only the
        # verdict.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    print("# %s seed %d: %d trials (%d traced), medians over trials" %
          (workload, seed, len(plain) + len(traced), len(traced)))
    e2e = median_of(plain, "e2e")
    print_table("end-to-end (host wall-clock, untraced trials)", e2e)
    calls = median_of(plain, "calls")
    calls["error_rate"] = (failed / attempted, "ratio")
    print_table("by call, and figures not gated", calls)
    metrics = e2e
    if trace:
        layer = median_of(traced, "layer")
        untraced_layer = median_of(plain, "layer")
        for name in UNTRACED_LAYER_METRICS:
            layer[name] = untraced_layer[name]
        layer["trace.overhead_pct"] = (
            100 * (e2e["throughput_kops"][0] /
                   median_of(traced, "e2e")["throughput_kops"][0] - 1), "%")
        print_table("per layer (traced trials)", layer)
        if workload.startswith("kv_") and layer["kv.get.vns_per_call"][0] == 0:
            print("NOTE: kv.get.vns_per_call is 0: the KV read path charges "
                  "no virtual time (ROADMAP open item 1); the zero-work "
                  "guard exempts it")
        metrics = layer
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def self_test(binary):
    """Plant one fault per check family; each trial must fail."""
    ok = True
    for workload, fault in (("kv_update_heavy", "stomp"),
                            ("alloc_churn", "alias")):
        rc, out, res = run_trial(binary, workload, 1, 0, False,
                                 ["--inject", fault])
        caught = rc != 0 and res is not None and not res["ok"]
        ok = ok and caught
        print("self-test %-16s --inject %-5s exit %d: %s" %
              (workload, fault, rc, "caught" if caught else "MISSED"))
        for why in (res or {}).get("errors", [])[:3]:
            print("    " + why)
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that planted faults fail the run")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = run_workload(binary, w, args.seed, args.seconds,
                              args.trace) or status
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
