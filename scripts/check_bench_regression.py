#!/usr/bin/env python3
"""Guard the benchmark speedups against regressions.

Re-runs the committed microbenchmarks from an existing build tree and
compares each configuration's speedup against the committed baselines at
the repo root:

  micro_spike_conv    BENCH_spike_conv.json     sparse-vs-dense forward
  micro_spike_bptt    BENCH_spike_bptt.json     sparse-vs-dense fwd+bwd
  micro_data_parallel BENCH_data_parallel.json  sharded-vs-serial step
  micro_infer         BENCH_infer.json          compiled-vs-training eval
  micro_gemm          BENCH_gemm.json           SIMD-vs-scalar microkernel

A configuration FAILS when its fresh speedup falls below
(1 - tolerance) x baseline speedup, default tolerance 25%. Rows are
keyed by the active SIMD level and numeric precision on top of each
bench's own fields (pre-SIMD baselines imply "scalar"; pre-quantization
baselines imply "fp32"), so scalar rows only ever gate against scalar
rows and int8 rows against int8 rows. Baseline rows whose SIMD level the
fresh run never produced (e.g. an avx2 baseline re-checked on a non-AVX2
host) are [simd-unavailable] and informational. Rows whose baseline
speedup is below --min-speedup (default 1.5x) are informational
only: near-threshold and fallback rows are noise-dominated, and a
"regression" from 1.1x to 0.9x is not a kernel problem. Rows that carry a
`hardware_threads` field are additionally gated on the host actually
having the cores the row needs (workers <= hardware_threads on BOTH the
baseline host and this one) — a 1-core runner cannot regress an 8-worker
speedup it never had.

The fresh speedup is the best of --runs repetitions (default 2): a real
regression shows up in every run, while scheduler noise on a loaded box
does not.

The last stdout line is a one-line JSON summary, e.g.
  {"status": "pass", "gated": 12, "info_only": 8, "regressions": 0}
so CI steps can consume the result without parsing the human report; the
exit code is 0 on pass, 1 on any regression or harness failure.
[simd-unavailable] advisories go to stderr so they can never displace
the JSON line for consumers tailing stdout.

Usage:
    scripts/check_bench_regression.py [build-dir] [--tolerance 0.25]
        [--min-speedup 1.5] [--min-ms 20] [--runs 2] [--only micro_infer]

stdlib only — no third-party imports.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# One spec per gated benchmark: the binary (under <build>/bench), the
# committed baseline at the repo root, the fields identifying a row, and
# the speedup metric to gate, and the absolute measurements (`sides`) the
# ratio is made of, printed beside it so a failing row shows which side
# moved. `threads_field`, when set, names the row field that must not
# exceed `hardware_threads` for the row to be gated.
BENCHES = [
    {
        "binary": "micro_spike_conv",
        "baseline": "BENCH_spike_conv.json",
        "key": ("channels", "hw", "firing_rate"),
        "metric": "speedup_vs_dense",
        "sides": ("sparse_ns_per_timestep", "dense_ns_per_timestep"),
        "threads_field": None,
    },
    {
        "binary": "micro_spike_bptt",
        "baseline": "BENCH_spike_bptt.json",
        "key": ("channels", "hw", "firing_rate"),
        "metric": "speedup_vs_dense",
        "sides": ("sparse_ns_per_step", "dense_ns_per_step"),
        "threads_field": None,
    },
    {
        "binary": "micro_data_parallel",
        "baseline": "BENCH_data_parallel.json",
        "key": ("shards", "workers"),
        "metric": "speedup_vs_serial",
        "sides": ("dp_ns_per_batch", "serial_ns_per_batch"),
        "threads_field": "workers",
    },
    {
        "binary": "micro_infer",
        "baseline": "BENCH_infer.json",
        "key": ("width", "hw", "theta", "firing_rate"),
        "metric": "speedup_vs_training",
        "sides": ("infer_ns_per_step", "train_ns_per_step"),
        "threads_field": None,
    },
    {
        "binary": "micro_gemm",
        "baseline": "BENCH_gemm.json",
        "key": ("shape", "m", "n", "k"),
        "metric": "speedup_vs_scalar_ref",
        "sides": ("ns_per_call",),
        "threads_field": None,
    },
    {
        "binary": "serve_load",
        "baseline": "BENCH_serve.json",
        "key": ("models", "clients"),
        "metric": "throughput_vs_serial",
        "sides": ("served_rps", "serial_rps"),
        "threads_field": "workers",
    },
]


def row_key(spec, row):
    # The SIMD level and numeric precision are part of every row's
    # identity: a scalar measurement must never gate an avx2 one, and an
    # int8 row must never gate an fp32 one. Baselines written before the
    # dispatch layer existed carry no "simd" field and were scalar by
    # construction; rows written before the int8 variant were fp32.
    return (tuple(row[f] for f in spec["key"]) +
            (row.get("simd", "scalar"), row.get("precision", "fp32")))


def load_rows(spec, path):
    with open(path) as f:
        return {row_key(spec, r): r for r in json.load(f)}


def run_bench(binary, out_path, min_ms):
    cmd = [str(binary), "--out", str(out_path), "--min-ms", str(min_ms)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL: {binary.name} exited {proc.returncode} "
                         "(its internal cross-check failed?)")


def sides(spec, row):
    """The row's absolute measurements, e.g. "sparse_ns=7.6e+05 ..."."""
    return " ".join(f"{f.split('_per_')[0]}={row[f]:.3g}"
                    for f in spec["sides"] if f in row)


def has_needed_threads(spec, row):
    """True when the row's host had the cores its worker count asks for."""
    field = spec["threads_field"]
    if field is None or "hardware_threads" not in row:
        return True
    return row[field] <= row["hardware_threads"]


def check(spec, baseline_path, fresh, tolerance, min_speedup, counts):
    name = spec["binary"]
    metric = spec["metric"]
    baseline = load_rows(spec, baseline_path)
    failures = []
    fresh_levels = {r.get("simd", "scalar") for r in fresh.values()}
    for key, base_row in sorted(baseline.items()):
        label = " ".join(f"{f}={v}" for f, v in
                         zip(spec["key"] + ("simd", "precision"), key))
        if key not in fresh:
            # A baseline level this host cannot produce (no AVX2, or the
            # fresh build compiled without it) is not a regression.
            if base_row.get("simd", "scalar") not in fresh_levels:
                counts["info_only"] += 1
                print(f"  {name:20s} {label:28s} [simd-unavailable]",
                      file=sys.stderr)
                continue
            failures.append(f"{name} {key}: missing from fresh run")
            continue
        base = base_row[metric]
        new = fresh[key][metric]
        floor = (1.0 - tolerance) * base
        gated = (base >= min_speedup and has_needed_threads(spec, base_row)
                 and has_needed_threads(spec, fresh[key]))
        status = "ok"
        if gated and new < floor:
            status = "REGRESSED"
            failures.append(
                f"{name} {key}: {metric} {new:.2f}x < floor {floor:.2f}x "
                f"(baseline {base:.2f}x; {sides(spec, base_row)} -> "
                f"{sides(spec, fresh[key])})")
        elif not gated:
            status = "info-only"
        counts["gated" if gated else "info_only"] += 1
        print(f"  {name:20s} {label:28s} baseline={base:6.2f}x "
              f"({sides(spec, base_row)}) fresh={new:6.2f}x "
              f"({sides(spec, fresh[key])})  [{status}]")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", nargs="?", default="build")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional speedup drop (default 0.25)")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="only gate rows whose baseline speedup is at least "
                         "this (default 1.5)")
    ap.add_argument("--min-ms", type=float, default=20.0,
                    help="per-config timing budget passed to the benches "
                         "(default 20; the committed baselines used 50)")
    ap.add_argument("--runs", type=int, default=2,
                    help="fresh repetitions per bench; each row keeps its "
                         "best speedup (default 2)")
    ap.add_argument("--only", default=None, metavar="BINARY",
                    help="gate a single bench by binary name (e.g. "
                         "micro_infer); default gates all of them")
    args = ap.parse_args()

    benches = BENCHES
    if args.only is not None:
        benches = [s for s in BENCHES if s["binary"] == args.only]
        if not benches:
            known = ", ".join(s["binary"] for s in BENCHES)
            raise SystemExit(f"error: unknown bench '{args.only}' "
                             f"(known: {known})")

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    if not bench_dir.is_dir():
        raise SystemExit(f"error: '{args.build_dir}' is not a build tree "
                         f"(run: cmake -B {args.build_dir} -S . && "
                         f"cmake --build {args.build_dir} -j)")

    failures = []
    counts = {"gated": 0, "info_only": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in benches:
            binary = bench_dir / spec["binary"]
            baseline = REPO_ROOT / spec["baseline"]
            if not binary.exists():
                raise SystemExit(f"error: {binary} not built")
            if not baseline.exists():
                raise SystemExit(f"error: baseline {baseline} missing")
            print(f"== {spec['binary']} ({args.runs} fresh run(s), "
                  f"--min-ms {args.min_ms}) ==")
            best = {}
            for i in range(max(1, args.runs)):
                fresh = pathlib.Path(tmp) / f"{i}_{spec['baseline']}"
                run_bench(binary, fresh, args.min_ms)
                for key, row in load_rows(spec, fresh).items():
                    if (key not in best or
                            row[spec["metric"]] > best[key][spec["metric"]]):
                        best[key] = row
            failures += check(spec, baseline, best,
                              args.tolerance, args.min_speedup, counts)

    if failures:
        print(f"\n{len(failures)} regression(s):")
        for f in failures:
            print(f"  {f}")
    else:
        print("\nall speedups within tolerance")
    summary = {
        "status": "fail" if failures else "pass",
        "gated": counts["gated"],
        "info_only": counts["info_only"],
        "regressions": len(failures),
    }
    print(json.dumps(summary))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
