#!/usr/bin/env python3
"""Steadiness check for the GLARE benchmark.

Runs every workload once per seed, alternating the workload order from
one seed to the next, then prints for each workload and metric the
median, the quartiles and the spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them. Each spread is compared
with a third of the metric's bound in BENCHMARK.json, and the share of
failed operations must be the same in every run of a workload.

Run it from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --seconds 20
    python3 perfbench/steady.py --workloads tree_query --seeds 1-5 --trace 1

With --repeat, every workload's first seed is run a second time and its
simulated metrics must match the first run exactly (allocation count and
peak heap to within 0.5%): a second process, so a second set of hash
seeds.

Exit code 1 when a run is incorrect, a spread exceeds its bound, the
failed share differs between runs, or a repeat does not match.
"""

import argparse
import math
import json
import statistics
import subprocess
import sys
import time


# Metrics fixed by the seed, and those that repeat only to within 0.5%.
SIMULATED = ["query_p50_ms", "query_p99_ms", "hops_per_query", "provision_p50_ms"]
HEAP = ["allocs_per_op", "peak_heap_mb"]


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", action="store_true",
                    help="re-run each workload's first seed and compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = seeds_of(args.seeds)

    results = {w: [] for w in workloads}
    ok = True
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            out, wall = run(spec["command"], w, seed, seconds, args.trace)
            if out is None or not out["correct"]:
                print(f"{w} seed {seed}: incorrect or no result", flush=True)
                ok = False
                continue
            shown = out["metrics"].get("run_s", {}).get("value", float("nan"))
            print(f"{w} seed {seed}: {wall:.1f} s wall, attempted {out['attempted']} "
                  f"failed {out['failed']}, run_s {shown:.4g}", flush=True)
            results[w].append(out)

    if args.repeat and not args.trace:
        for w in workloads:
            if not results[w]:
                continue
            again, _ = run(spec["command"], w, seeds[0], seconds, 0)
            first = results[w][0]["metrics"]
            for name in SIMULATED + HEAP:
                a = first[name]["value"]
                b = again["metrics"][name]["value"] if again else math.nan
                same = a == b if name in SIMULATED else abs(a - b) <= 5e-3 * max(abs(a), abs(b))
                if not same:
                    ok = False
                print(f"repeat {w} seed {seeds[0]} {name}: {a} vs {b} {'ok' if same else 'DIFFERS'}")

    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(shares)}")
        if len(shares) > 1:
            ok = False
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) != len(runs):
                print(f"  {name}: missing from some runs")
                ok = False
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = ok and spread <= bound
            third = f"{bound / 3:8.4f}" if bound is not None else " " * 8
            print(f"  {name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {third}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
