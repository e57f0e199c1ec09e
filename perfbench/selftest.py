#!/usr/bin/env python3
"""Self-test of the lifecycle benchmark, at small size (well under a minute
once built).

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it checks that:
  * an untraced run is correct and emits every end-to-end metric named in
    BENCHMARK.json, with that metric's unit;
  * a traced run (which also re-runs the seed untraced and compares the two
    virtual-time digests) is correct and emits every per-layer metric of
    BENCHMARK.json with its unit;
  * the digest repeats across two invocations with the same seed.
It also checks that run.py and BENCHMARK.json name the same metrics.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark command itself)

SEED = 7
SECONDS = "1"


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def invoke(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace",
               str(trace), "--small"]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        fail("%s --trace %d exited %d:\n%s" %
             (workload, trace, result.returncode, result.stderr[-2000:]))
    lines = result.stdout.strip().splitlines()
    digests = re.findall(r"^  digest = ([0-9a-f]{16})$", result.stdout,
                         re.MULTILINE)
    return json.loads(lines[-1]), digests


def check_units(result, declared, what):
    if not result["correct"]:
        fail("%s run is not correct" % what)
    if result["failed"] != 0:
        fail("%s run reports %d failed operations" % (what, result["failed"]))
    metrics = result["metrics"]
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            fail("%s run does not emit %s" % (what, entry["name"]))
        if got["unit"] != entry["unit"]:
            fail("%s: %s has unit %r, BENCHMARK.json says %r" %
                 (what, entry["name"], got["unit"], entry["unit"]))
    extra = set(metrics) - {entry["name"] for entry in declared}
    if extra:
        fail("%s run emits undeclared metrics %s" % (what, sorted(extra)))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if [m["name"] for m in spec["end_to_end"]] != run.END_TO_END:
        fail("run.END_TO_END differs from BENCHMARK.json end_to_end")
    if [m["name"] for m in spec["per_layer"]] != run.PER_LAYER:
        fail("run.PER_LAYER differs from BENCHMARK.json per_layer")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != ["churn", "fed", "steady"]:
        fail("unexpected workloads %s" % names)

    for workload in names:
        first, digests_first = invoke(workload, 0)
        check_units(first, spec["end_to_end"], workload + " untraced")
        second, digests_second = invoke(workload, 0)
        check_units(second, spec["end_to_end"], workload + " untraced")
        if len(digests_first) != 1 or digests_first != digests_second:
            fail("%s digest does not repeat: %s vs %s" %
                 (workload, digests_first, digests_second))
        traced, digests_traced = invoke(workload, 1)
        check_units(traced, spec["per_layer"], workload + " traced")
        if len(set(digests_traced)) != 1 or \
                digests_traced[0] != digests_first[0]:
            fail("%s traced digest %s differs from untraced %s" %
                 (workload, digests_traced, digests_first))
        print("selftest: %s ok (digest %s)" % (workload, digests_first[0]))
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
