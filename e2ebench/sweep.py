#!/usr/bin/env python3
"""Run the benchmark over several seeds and record a result set.

    python3 e2ebench/sweep.py --out results.jsonl [--workloads search,...]
        [--seeds 1,2,3] [--trace 0|1|both] [--seconds S]

Each run goes through run.py exactly as a benchmark harness would call it.
Every run appends one JSON line {"workload", "seed", "trace", "exit",
"result"} to --out; compare.py reads two such files. At the end the
spread of every end-to-end metric (interquartile range over the median,
statistics.quantiles with n=4) is printed per workload next to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    rows = []
    for workload in args.workloads.split(","):
        for seed in [int(s) for s in args.seeds.split(",")]:
            for trace in traces:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                row = {"workload": workload, "seed": seed, "trace": trace,
                       "exit": proc.returncode, "result": result}
                rows.append(row)
                with open(args.out, "a") as f:
                    f.write(json.dumps(row) + "\n")
                print(f"{workload} seed {seed} trace {trace}: exit "
                      f"{proc.returncode}", file=sys.stderr, flush=True)

    for workload in args.workloads.split(","):
        runs = [r for r in rows if r["workload"] == workload
                and r["trace"] == 0 and r["result"]]
        if not runs:
            continue
        print(f"\n{workload} ({len(runs)} runs)")
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = spread(vals)
            print(f"  {m['name']:18s} median {statistics.median(vals):12.5g} "
                  f"{m['unit']:6s} spread {s:7.3f}  bound {m['bound']}"
                  f"{'  OVER' if s > m['bound'] else ''}")


if __name__ == "__main__":
    main()
