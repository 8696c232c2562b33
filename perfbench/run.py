#!/usr/bin/env python3
"""Repository benchmark: builds the library and dust_perfbench from source,
runs one workload in its own process, and prints the result line.

    python3 perfbench/run.py --workload alg1_tus --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); traced runs also write a Chrome trace to
<build>/traces/. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; progress goes to stderr. Workloads
and metrics are described in perfbench/workloads.json, which also holds the
provenance digests each run's answers must match.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alg1_tus", "alg1_wide", "serve_zipf")
# A run must end within 180 s, or 900 s when it builds from scratch; the
# measuring process gets what the build left.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 880
BUILD_LIMIT_S = 650


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, deadline):
    """Configures (once) and builds dust_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {ROOT}; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "dust_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "dust_perfbench")


def digest_flags(workload, seed):
    """dust_perfbench flags naming the expected digests in workloads.json."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        expected = json.load(f)["workloads"][workload]["expected_digest"]
    flags = ["--expect-queries-digest", expected["queries"]]
    pool = expected.get("pool", {}).get(str(seed))
    if pool:
        flags += ["--expect-pool-digest", pool]
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    start = time.time()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    binary = build(build_dir, start + BUILD_LIMIT_S)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    command += digest_flags(args.workload, args.seed)
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}_seed{args.seed}.json")]
    # OpenMP only runs in the sequential oracle that checks served results
    # after the measured window; idle OpenMP threads sleep instead of spin.
    env = dict(os.environ, OMP_WAIT_POLICY="passive")
    built_from_scratch = time.time() - start > 20
    limit = FIRST_RUN_LIMIT_S if built_from_scratch else RUN_LIMIT_S
    try:
        # On timeout, run() kills the process and waits for it.
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=limit - (time.time() - start))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
