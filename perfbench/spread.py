#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sql-ingest --seeds 1-10 [--trace 0] [--show]

For every metric the script prints the median of the runs and the
distance between the first and third quartile (Python's
statistics.quantiles, n=4) as a share of that median, next to the
metric's bound from BENCHMARK.json. Set PERFBENCH_BIN to a built
binary to skip `cargo run`. Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    binary = os.environ.get("PERFBENCH_BIN")
    if binary:
        cmd = [binary]
    else:
        bench = json.load(open("BENCHMARK.json"))
        cmd = list(bench["command"])
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return lines[0], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--show", action="store_true", help="print every run's value")
    ap.add_argument("--json", help="also write the medians, quartiles and spreads to this file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    provenance = None
    for seed in seeds(args.seeds):
        first, result = run_once(args.workload, seed, seconds, args.trace)
        provenance = provenance or first
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}", flush=True)
    summary = {}
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1 = q3 = float("nan")
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        bound = bounds.get(name)
        flag = ""
        if bound and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:36s} median={med:<14.6g} spread={spread:7.4f} bound={bound}{flag}")
        if args.show:
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    if args.json:
        out = {"workload": args.workload, "seeds": seeds(args.seeds), "seconds": seconds,
               "trace": args.trace, "provenance": provenance, "metrics": summary}
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
