#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines sweep.py writes. For every workload and
every end-to-end metric of BENCHMARK.json this prints the median and the
quartiles of both sets (untraced runs) and the change of the median.
A metric whose median got worse by more than its bound is a regression;
for each one the per-layer metric (traced runs) with the largest relative
shift of its median is named, so the report points at the layer that
moved. Exits 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(rows, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["workload"] == workload and r["trace"] == trace
            and r["result"] and metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


def rel(new, base):
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - base) / abs(base)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    regressed_any = False
    for w in workloads:
        if not values(base, w, 0, "setup_s") or not values(new, w, 0, "setup_s"):
            continue
        print(f"{w}")
        print(f"  {'metric':18s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}"
              f" {'change':>8s}")
        regressed = []
        for m in spec["end_to_end"]:
            b = quartiles(values(base, w, 0, m["name"]))
            n = quartiles(values(new, w, 0, m["name"]))
            change = rel(n[1], b[1])
            worse = -change if m["better"] == "higher" else change
            flag = ""
            if worse > m["bound"]:
                flag = "  REGRESSED"
                regressed.append((m["name"], change))
            print(f"  {m['name']:18s} {b[0]:9.4g} {b[1]:9.4g} {b[2]:9.4g}  "
                  f"{n[0]:9.4g} {n[1]:9.4g} {n[2]:9.4g} {change:+8.1%}{flag}")
        for name, change in regressed:
            regressed_any = True
            shifts = []
            for p in spec["per_layer"]:
                if p["name"].startswith("e2e."):
                    continue  # untraced repeats of end-to-end figures
                bv = values(base, w, 1, p["name"])
                nv = values(new, w, 1, p["name"])
                if bv and nv:
                    shifts.append((abs(rel(statistics.median(nv),
                                           statistics.median(bv))),
                                   p["name"], statistics.median(bv),
                                   statistics.median(nv)))
            if not shifts:
                print(f"  {name} regressed {change:+.1%}; no traced runs in "
                      "both sets to name a layer (sweep.py --trace both)")
                continue
            shift, layer, bmed, nmed = max(shifts)
            print(f"  {name} regressed {change:+.1%}; largest per-layer shift: "
                  f"{layer} {bmed:.4g} -> {nmed:.4g} ({shift:+.1%})")
    return 1 if regressed_any else 0


if __name__ == "__main__":
    sys.exit(main())
