#!/usr/bin/env bash
# Run the fast ctest smokes (the bench-binary cross-checks, not the full
# gtest tier) against an existing build tree.
#
#   scripts/run_smokes.sh [build-dir]
#
# Default build dir is ./build. The smokes are also registered with ctest,
# so `ctest -R smoke` inside the build dir is equivalent; this wrapper
# exists so CI and humans invoke them the same way without remembering
# binary paths or output-file flags.

set -euo pipefail
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: \`${BASH_COMMAND}\` failed" >&2' ERR

BUILD_DIR="${1:-build}"

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: '${BUILD_DIR}' is not a build tree (run: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi

for bin in micro_gemm micro_spike_conv micro_spike_bptt micro_data_parallel micro_infer serve_load telemetry_smoke; do
  if [[ ! -x "${BUILD_DIR}/bench/${bin}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${bin} not built (stale tree? re-run cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
done

echo "== micro_gemm smoke (scalar-vs-AVX2 bitwise cross-check) =="
"${BUILD_DIR}/bench/micro_gemm" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_gemm_smoke.json"

echo
echo "== micro_spike_conv smoke (sparse-vs-dense cross-check) =="
"${BUILD_DIR}/bench/micro_spike_conv" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_spike_conv_smoke.json"

echo
echo "== micro_spike_bptt smoke (bit-for-bit backward cross-check) =="
"${BUILD_DIR}/bench/micro_spike_bptt" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_spike_bptt_smoke.json"

echo
echo "== micro_data_parallel smoke (bitwise worker-invariance cross-check) =="
"${BUILD_DIR}/bench/micro_data_parallel" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_data_parallel_smoke.json"

echo
echo "== micro_infer smoke (compiled plan vs training eval cross-check) =="
"${BUILD_DIR}/bench/micro_infer" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_infer_smoke.json"

echo
echo "== serve_load smoke (served vs direct-engine cross-check) =="
"${BUILD_DIR}/bench/serve_load" --smoke 1 \
  --out "${BUILD_DIR}/bench/BENCH_serve_smoke.json"

echo
echo "== serve_load socket smoke (loopback TCP vs in-process cross-check) =="
"${BUILD_DIR}/bench/serve_load" --smoke 1 --transport socket \
  --out "${BUILD_DIR}/bench/BENCH_serve_socket_smoke.json"

echo
echo "== telemetry smoke (trace export + validation) =="
"${BUILD_DIR}/bench/telemetry_smoke" \
  --out "${BUILD_DIR}/bench/BENCH_telemetry_trace.json"

echo
echo "all smokes passed"
