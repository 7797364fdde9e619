#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance
driver computes it: N runs per workload, each on another seed; spread =
(Q3 - Q1) / median with statistics.quantiles(values, n=4). A metric is
steady when its spread is below a third of its bound in BENCHMARK.json.

    python3 bench/spread.py                  # every workload, seeds 1..10
    python3 bench/spread.py -w pan_zoom -n 5 --first-seed 100
    python3 bench/spread.py --json runs.json # keep every run's numbers

Run from the repository root. Exits 1 if any spread exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-w", "--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("-n", "--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run's metrics to this file")
    ap.add_argument("--cmd", nargs="+", default=spec["command"], help="benchmark command (default: BENCHMARK.json's)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs, worst = {}, 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.time()
            out = subprocess.run(
                args.cmd + ["--workload", w, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            if set(res["metrics"]) != set(bounds):
                sys.exit(f"{w} seed {seed}: reported {sorted(res['metrics'])}, declared {sorted(bounds)}")
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"# {w} seed {seed}: {time.time() - t0:.1f}s", file=sys.stderr)
        runs[w] = values
        print(f"\n{w}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            share = spread / bounds[name]
            flag = "ok" if share < 1 / 3 else ("WIDE" if share < 1 else "OVER")
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:18s} median {med:14.4f}  spread {spread * 100:6.2f}%  bound {bounds[name] * 100:5.1f}%  {flag}")
    if args.json:
        json.dump(runs, open(args.json, "w"), indent=1)
    sys.exit(1 if worst >= 1 else 0)


if __name__ == "__main__":
    main()
