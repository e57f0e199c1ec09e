#!/usr/bin/env python3
"""Lifecycle benchmark of the DRCom/DRCR stack: one run of one workload.

    python3 perfbench/run.py --workload steady|churn|fed --seed N \
        --seconds S --trace 0|1 [--small]

Run from the root of a checkout. Builds perfbench/ (and through it the
repository's libraries under src/) into .bench_build/, runs the benchmark
binary, and prints its report followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the same
seed is run twice, untraced and traced; the metrics are the per-layer ones
of the traced run plus the tracing overhead, and the run is correct only if
both runs are correct and their virtual-time digests are identical.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lifecycle_bench")
RUN_TIMEOUT_S = 170

END_TO_END = [
    "setup_s",
    "jobs_per_s",
    "msgs_per_s",
    "reconfig_p50_us",
    "reconfig_p99_us",
    "peak_rss_mb",
]

# Per-layer metrics reported on every workload. Latencies of calls that only
# one workload makes (drcom.mode.*_p50_us on churn; fed.place.p50_us,
# fed.migrate.p50_us and fed.ns_per_cross_msg on fed) are printed in the
# report of the traced run but are not part of this list.
PER_LAYER = [
    "xml.parse.calls", "xml.parse.busy_ms", "xml.parse.p50_us",
    "xml.parse.errors",
    "osgi.start.calls", "osgi.start.self_ms", "osgi.stop.calls",
    "osgi.stop.self_ms", "osgi.service_lookups", "osgi.events_dispatched",
    "drcom.resolve.busy_ms", "drcom.resolve.self_ms",
    "drcom.resolution_rounds", "drcom.rounds_per_op", "drcom.activations",
    "drcom.deactivations",
    "drcom.admission.calls", "drcom.admission.busy_ms",
    "drcom.admission.p50_ns", "drcom.admission.reject_ratio",
    "drcom.admission.useful_ratio",
    "drcom.mode_transitions", "drcom.mode_rejections",
    "cap.calls", "cap.accepted", "cap.rejected", "cap.revoked_calls",
    "cap.binds", "cap.revocations", "cap.accept_ratio",
    "rtos.run.busy_ms", "rtos.events", "rtos.ns_per_event", "rtos.ns_per_job",
    "rtos.dispatches", "rtos.preemptions", "rtos.releases",
    "rtos.completions", "rtos.deadline_misses",
    "ipc.mailbox_sent", "ipc.mailbox_received", "ipc.mailbox_handoff",
    "ipc.mailbox_dropped", "ipc.handoff_ratio", "ipc.pool.live_slabs_peak",
    "fed.channel.arrived", "fed.channel.rejected", "fed.migrate.fail_ratio",
    "trace.coverage", "trace.target_share", "trace.spans",
    "trace.overhead_jobs", "trace.overhead_reconfig",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "lifecycle_bench",
              "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def run_binary(args, trace, trace_out=None):
    """Runs one pass; returns its parsed report (None on failure)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.small:
        command.append("--small")
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark pass timed out")
        return None
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        log(result.stderr[-4000:])
        log("perfbench: benchmark pass failed with code %d" % result.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    if result.stderr:
        log(result.stderr[-4000:])
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unreadable report line")
        return None


def pick(report, section, names):
    metrics = {}
    for name in names:
        entry = report[section].get(name)
        if entry is None:
            raise KeyError(name)
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["steady", "churn", "fed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test size (seconds, not minutes)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    untraced = run_binary(args, 0)
    if untraced is None:
        return 1
    if args.trace == 0:
        result = {
            "correct": bool(untraced["correct"]),
            "attempted": int(untraced["attempted"]),
            "failed": int(untraced["failed"]),
            "metrics": pick(untraced, "end_to_end", END_TO_END),
        }
        print(json.dumps(result))
        return 0

    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-%d.trace.json" %
                             (args.workload, args.seed))
    traced = run_binary(args, 1, trace_out)
    if traced is None:
        return 1
    same_digest = traced["digest"] == untraced["digest"]
    print("digest untraced %s traced %s: %s" %
          (untraced["digest"], traced["digest"],
           "identical" if same_digest else "DIFFERENT"))
    for name in ("drcom.mode.commit_p50_us", "drcom.mode.reject_p50_us",
                 "fed.place.p50_us", "fed.migrate.p50_us",
                 "fed.ns_per_cross_msg"):
        entry = traced["per_layer"].get(name)
        if entry is not None:
            print("workload-only %s = %.6g %s" %
                  (name, entry["value"], entry["unit"]))
    base = untraced["end_to_end"]
    seen = traced["end_to_end"]
    layers = dict(traced["per_layer"])
    layers["trace.overhead_jobs"] = {
        "value": base["jobs_per_s"]["value"] / seen["jobs_per_s"]["value"],
        "unit": "ratio"}
    layers["trace.overhead_reconfig"] = {
        "value": seen["reconfig_p50_us"]["value"] /
        base["reconfig_p50_us"]["value"],
        "unit": "ratio"}
    result = {
        "correct": bool(untraced["correct"] and traced["correct"] and
                        same_digest),
        "attempted": int(untraced["attempted"]) + int(traced["attempted"]),
        "failed": int(untraced["failed"]) + int(traced["failed"]),
        "metrics": pick({"per_layer": layers}, "per_layer", PER_LAYER),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
