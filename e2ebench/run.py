#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload search|serve-sparse|serve-dense \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake, runs one
workload, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints every end_to_end metric of BENCHMARK.json, --trace 1
every per_layer metric (a layer the workload never reaches reads 0).
Build output and the workload's own report go to stderr. Exits nonzero
when the build fails, an output check fails, or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configure once, then build `target` incrementally. Returns its path."""
    out = os.path.join(build_dir(), "e2ebench")
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["search", "serve-sparse", "serve-dense"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources under src/ in this checkout")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build("e2e_bench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    work = os.path.join(build_dir(), "work",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: no result from e2e_bench (exit {proc.returncode})")
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(got["metrics"]) - set(units))
    if unknown:
        log(f"run.py: metrics not listed in BENCHMARK.json: {unknown}")
        return 1
    metrics = {}
    for name, unit in units.items():
        m = got["metrics"].get(name)
        if m is None:
            if not args.trace:
                log(f"run.py: end-to-end metric {name} missing")
                return 1
            m = {"value": 0.0, "unit": unit}
        if m["unit"] != unit or m["value"] is None:
            log(f"run.py: metric {name} reads {m}, expected unit {unit}")
            return 1
        metrics[name] = {"value": m["value"], "unit": unit}

    print(json.dumps({"correct": bool(got["correct"]) and proc.returncode == 0,
                      "attempted": int(got["attempted"]),
                      "failed": int(got["failed"]),
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 and got["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
