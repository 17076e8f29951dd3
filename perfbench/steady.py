#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one build.

For every workload and end-to-end metric it prints each set's median,
quartiles and relative spread (interquartile distance over the median),
whether that spread stays within the metric's bound from BENCHMARK.json,
and whether the two sets' medians differ by no more than the bound (in
either direction).  It also checks that the share of failed operations is
the same in both sets and that every sim_ metric repeats exactly for a
seed between the sets.  Run it from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads seeded_lookup

Exits 1 when any check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of (seed, result)
    results = [{w: [] for w in workloads}, {w: [] for w in workloads}]
    for i in range(args.runs):
        seed = 1 + i
        # Alternate which set runs first, so drift over time lands on both.
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            for w in workloads:
                res = run_once(bench["command"], w, seed, seconds)
                results[s][w].append((seed, res))
                print(f"set {s} {w} seed {seed}: attempted {res['attempted']} failed {res['failed']}", flush=True)

    ok = True
    print()
    print(f"{'workload':15} {'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} verdict")
    for w in workloads:
        fails = []
        for s in (0, 1):
            att = sum(r["attempted"] for _, r in results[s][w])
            fl = sum(r["failed"] for _, r in results[s][w])
            fails.append((fl, att))
        if fails[0][0] * fails[1][1] != fails[1][0] * fails[0][1]:
            ok = False
            print(f"{w}: failed share differs between sets: {fails}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in (0, 1):
                vals = [r["metrics"][name]["value"] for _, r in results[s][w]]
                q1, med, q3, sp = spread(vals)
                meds.append(med)
                verdict = "ok"
                if sp > bound:
                    verdict = "SPREAD OVER BOUND"
                    ok = False
                elif sp > bound / 3:
                    verdict = "spread over bound/3"
                print(f"{w:15} {name:24} {s:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.3f} {bound:6.3f} {verdict}")
            diff = (meds[1] - meds[0]) / meds[0]
            agree = abs(diff) <= bound
            ok = ok and agree
            print(f"{w:15} {name:24} {'':>3} second set median {diff:+.3%} off the first: {'agree' if agree else 'DISAGREE'}")
            if name.startswith("sim_"):
                for (sa, ra), (sb, rb) in zip(results[0][w], results[1][w]):
                    if ra["metrics"][name]["value"] != rb["metrics"][name]["value"]:
                        ok = False
                        print(f"{w} {name}: seed {sa} gave {ra['metrics'][name]['value']} and {rb['metrics'][name]['value']}")
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
