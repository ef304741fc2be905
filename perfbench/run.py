#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (shared dune cache
off, so nothing is written outside the checkout), runs it with the
environment variables that would change its behaviour removed, checks
the result line against BENCHMARK.json and prints it as the last line
of standard output.  The workloads and what each measures are described
in BENCHMARK.json and perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(result, names):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s is not a whole number" % key)
    if result["attempted"] < 1:
        fail("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(metrics), sorted(names)))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != names[name]:
            fail("metric %s is malformed" % name)
        if not isinstance(m["value"], (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(no dune-project or lib/ here)")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # the benchmark fixes its own worker counts and never uses a disk
    # tier that could warm one run from another
    env.pop("ASCEND_JOBS", None)
    env.pop("ASCEND_CACHE_DIR", None)

    t0 = time.monotonic()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "perfbench/perfbench.exe"],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")
    print("perfbench: built in %.1f s" % (time.monotonic() - t0), flush=True)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--out", os.path.join("perfbench", "out")]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("run failed with exit code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of the run is not JSON")
    group = "per_layer" if args.trace else "end_to_end"
    check_result(result, {m["name"]: m["unit"] for m in spec[group]})
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
