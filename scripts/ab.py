#!/usr/bin/env python3
"""Paired A/B of two revisions on one end-to-end benchmark workload.

    python3 scripts/ab.py --parent REV --change REV --workload W \\
        --pairs N [--seconds S] [--seed-base B] [--traced] [--keep DIR]
        [--work DIR]

Exports each revision with `git archive` into a temporary directory
outside the repository (under $TMPDIR; --work names one that is kept, so
a later A/B of the same revisions reuses its builds), builds each with
its own CARGO_TARGET_DIR, then runs `e2ebench/run.py` N times per side,
alternating the sides and which side starts each pair. Both runs of a
pair use the same seed (B + pair index). For every end-to-end metric of
the change's BENCHMARK.json it prints both medians, the median per-pair
ratio change/parent, a paired-bootstrap 95% CI of that median ratio,
the pairs the change won, and whether the parent's own spread
(interquartile range over median) is wider than the metric's bound, in
which case the metric is reported unresolved. --traced adds one traced
pair and runs the change's e2ebench/compare.py on it. With --keep DIR,
every run's result is kept as JSON lines (the e2ebench/sweep.py row
format) in DIR/{parent,change}.jsonl and its stderr, which carries the
workload's own report, in DIR/<side>-s<seed>-t<trace>.log. Stdlib only.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP = 2000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """git archive REV into dest; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


class Side:
    def __init__(self, name, rev, work, keep):
        self.name = name
        self.tree = os.path.join(work, name)
        self.sha = export(rev, self.tree)
        self.env = dict(os.environ,
                        CARGO_TARGET_DIR=os.path.join(work, name + "-build"))
        self.keep = keep
        self.rows = []

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, os.path.join("e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        err_path = os.devnull
        if self.keep:
            err_path = os.path.join(self.keep,
                                    f"{self.name}-s{seed}-t{trace}.log")
        with open(err_path, "w") as err:
            proc = subprocess.run(cmd, cwd=self.tree, env=self.env,
                                  stdout=subprocess.PIPE, stderr=err,
                                  text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        row = {"workload": workload, "seed": seed, "trace": trace,
               "exit": proc.returncode, "result": result}
        self.rows.append(row)
        return row


def median(vals):
    return statistics.median(vals) if vals else float("nan")


def rel_iqr(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    mid = median(vals)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def ratio(new, base):
    if base == 0:
        return 1.0 if new == 0 else float("inf")
    return new / base


def bootstrap_ci(ratios, seed=0):
    """Paired bootstrap: resample the pairs, take the median ratio."""
    rng = random.Random(seed)
    meds = sorted(median([rng.choice(ratios) for _ in ratios])
                  for _ in range(BOOTSTRAP))
    return meds[int(0.025 * BOOTSTRAP)], meds[int(0.975 * BOOTSTRAP) - 1]


def report(spec, pairs, parent, change):
    print(f"{'metric':<18} {'parent':>11} {'change':>11} {'ratio':>7} "
          f"{'95% CI':>17} {'wins':>6}  parent IQR/median")
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        par, chg, ratios, wins = [], [], [], 0
        for p, c in pairs:
            if not (p["result"] and c["result"]):
                continue
            pv = p["result"]["metrics"][name]["value"]
            cv = c["result"]["metrics"][name]["value"]
            par.append(pv)
            chg.append(cv)
            ratios.append(ratio(cv, pv))
            wins += (cv > pv) if better == "higher" else (cv < pv)
        if not ratios:
            print(f"{name:<18} no complete pairs")
            continue
        lo, hi = bootstrap_ci(ratios)
        spread = rel_iqr(par)
        flag = "unresolved" if spread > bound else "ok"
        print(f"{name:<18} {median(par):>11.4g} {median(chg):>11.4g} "
              f"{median(ratios):>7.3f} [{lo:>7.3f},{hi:>7.3f}] "
              f"{wins:>2}/{len(ratios):<3}  {spread:.3f} vs bound "
              f"{bound} {flag}")
    for side, rows in (("parent", parent), ("change", change)):
        att = sum(r["result"]["attempted"] for r in rows if r["result"])
        fail = sum(r["result"]["failed"] for r in rows if r["result"])
        bad = sum(1 for r in rows if r["exit"] != 0 or not r["result"])
        print(f"{side}: {fail} of {att} operations failed, "
              f"{bad} of {len(rows)} runs exited nonzero")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--keep", help="directory for the per-run JSON lines")
    ap.add_argument("--work", help="kept directory for the trees and builds")
    args = ap.parse_args()

    work = (os.path.abspath(args.work) if args.work
            else tempfile.mkdtemp(prefix="snnskip-ab-"))
    keep = os.path.abspath(args.keep) if args.keep else None
    if keep:
        os.makedirs(keep, exist_ok=True)
    try:
        parent = Side("parent", args.parent, work, keep)
        change = Side("change", args.change, work, keep)
        log(f"ab: parent {parent.sha[:12]}, change {change.sha[:12]}, "
            f"work dir {work}")
        with open(os.path.join(change.tree, "BENCHMARK.json")) as f:
            spec = json.load(f)
        # The first run of each side builds it; keep those builds out of
        # the timed pairs with a short warm-up run per side.
        for side in (parent, change):
            log(f"ab: building {side.name}")
            row = side.run(args.workload, args.seed_base, 1, 0)
            side.rows.clear()
            if row["exit"] != 0:
                log(f"ab: {side.name} warm-up run exited {row['exit']}")
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = (parent, change) if i % 2 == 0 else (change, parent)
            got = {}
            for side in order:
                got[side.name] = side.run(args.workload, seed, args.seconds, 0)
            pairs.append((got["parent"], got["change"]))
            p, c = got["parent"]["result"], got["change"]["result"]
            first = spec["end_to_end"][0]["name"]
            log(f"ab: pair {i + 1}/{args.pairs} seed {seed} ({order[0].name} "
                f"first): {first} parent "
                f"{p['metrics'][first]['value'] if p else 'n/a'} change "
                f"{c['metrics'][first]['value'] if c else 'n/a'}")
        print(f"{args.workload}: {args.pairs} pairs at {args.seconds:g} s, "
              f"parent {parent.sha[:12]} vs change {change.sha[:12]}")
        report(spec, pairs, parent.rows, change.rows)
        if args.traced:
            for side in (parent, change):
                side.run(args.workload, args.seed_base, args.seconds, 1)
        if keep or args.traced:
            keep = keep or work
            for side in (parent, change):
                with open(os.path.join(keep, side.name + ".jsonl"), "w") as f:
                    for row in side.rows:
                        f.write(json.dumps(row) + "\n")
        if args.traced:
            sys.stdout.flush()
            subprocess.run([sys.executable,
                            os.path.join(change.tree, "e2ebench", "compare.py"),
                            os.path.join(keep, "parent.jsonl"),
                            os.path.join(keep, "change.jsonl")])
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
