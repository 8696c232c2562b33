#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one workload once per seed and
reports, per metric, the median and the distance between the first and
third quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_zipf --seeds 1-10

Run from the repository root. Exits non-zero if a run fails, reports a
failed output check, or (untraced) a metric spreads wider than its bound.
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


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) with Python's default quantiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    share = (q3 - q1) / abs(median) if median else float("inf")
    return q1, median, q3, share


def parse_seeds(text):
    """'1-4,9' -> [1, 2, 3, 4, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    values = {name: [] for name in bounds}
    ok = True
    for seed in parse_seeds(args.seeds):
        start = time.time()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        if done.returncode != 0:
            print(f"seed {seed}: run failed", file=sys.stderr)
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} failed checks",
                  file=sys.stderr)
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} ({time.time() - start:.0f} s): " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values),
            file=sys.stderr)

    print(f"{args.workload} ({len(values[next(iter(values))])} runs)")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, samples in values.items():
        if len(samples) < 2:
            continue
        q1, median, q3, share = spread(samples)
        bound = bounds[name]
        verdict = ""
        if bound is not None:
            verdict = "ok" if share <= bound / 3 else (
                "wide" if share <= bound else "OVER")
            if share > bound:
                ok = False
        print(f"{name:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.4f} {'' if bound is None else bound:>6} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
