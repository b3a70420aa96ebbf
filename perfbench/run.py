#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload build|fault|hot|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources in
src/ plus the ccbench driver) into .bench_build/; later runs only rebuild
what changed. The driver's output is passed through; its last line is one
JSON object with the keys correct, attempted, failed and metrics. This
script checks that the metric names are exactly the ones BENCHMARK.json
lists for the run's mode and exits non-zero, printing no result, when the
sources are missing, the build fails or the driver misbehaves.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "fault", "hot", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(root, jobs, env):
    """Configures (once) and builds the ccbench driver; returns its path."""
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "ccbench",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ccbench")


def main():
    args = parse_args()
    root = os.getcwd()
    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                 "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("run from the root of a checkout: %s is missing" % need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # Compiler and driver temporaries stay inside the checkout.
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    jobs = max(1, min(4, os.cpu_count() or 1))
    exe = build(root, jobs, env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ccbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("ccbench exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(r.stdout)
        fail("ccbench's last line is not JSON")
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        sys.stderr.write(r.stdout)
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
