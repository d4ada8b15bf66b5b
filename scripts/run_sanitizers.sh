#!/usr/bin/env bash
# Build the library and test suites under sanitizers and run ctest.
#
#   scripts/run_sanitizers.sh [build-dir]          # ASan + UBSan, full tier-1
#   scripts/run_sanitizers.sh --tsan [build-dir]   # TSan, concurrency suites
#
# Default build dirs are ./build-asan and ./build-tsan (kept separate from
# ./build so a sanitizer run never dirties the regular tree). Uses the
# SNNSKIP_SANITIZE / SNNSKIP_SANITIZE_THREAD CMake options, so any build
# system that sets them gets the same instrumentation without this wrapper.
#
# The TSan mode is scoped to the suites that actually spawn threads
# (thread pool, data-parallel training, concurrent candidate fine-tunes,
# concurrent inference engines, the serving daemon) — TSan roughly 10x-es
# the single-threaded suites for no additional coverage, and ASan/TSan
# cannot share one build tree.

set -euo pipefail
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: \`${BASH_COMMAND}\` failed" >&2' ERR

MODE="asan"
if [[ "${1:-}" == "--tsan" ]]; then
  MODE="tsan"
  shift
fi

BUILD_DIR="${1:-build-${MODE}}"

if [[ ! -f CMakeLists.txt ]]; then
  echo "error: run from the repository root (CMakeLists.txt not found)" >&2
  exit 1
fi

if [[ "${MODE}" == "tsan" ]]; then
  echo "== configure (${BUILD_DIR}, TSan) =="
  # Fault points stay compiled in (explicitly, in case the default ever
  # flips): the serve chaos drills must run under TSan, not just the
  # happy path.
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSNNSKIP_SANITIZE_THREAD=ON \
    -DSNNSKIP_FAULT_POINTS=ON
else
  echo "== configure (${BUILD_DIR}, ASan+UBSan) =="
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSNNSKIP_SANITIZE=ON
fi

echo
echo "== build =="
cmake --build "${BUILD_DIR}" -j

echo
if [[ "${MODE}" == "tsan" ]]; then
  echo "== ctest (concurrency suites under TSan) =="
  # Suites that exercise real threads: the pool itself, data-parallel
  # gradient reduction, candidate fine-tunes on pool workers against a
  # shared weight store (ParallelEvaluator, SearchWorkerCount), concurrent
  # Engines with distinct ExecOptions, the serving daemon (request
  # workers + client threads), the serve chaos drills (loopback TCP, armed
  # fault sites, concurrent clients), and both serve_load smokes'
  # closed-loop clients.
  (
    cd "${BUILD_DIR}"
    TSAN_OPTIONS="halt_on_error=1" \
      ctest --output-on-failure -j "$(nproc)" \
      -R '(ParallelTest|ThreadPool|DataParallel|ParallelEvaluator|SearchWorkerCount|Concurrent|ServerTest|ModelRegistryTest|ServeFault|serve_load_smoke|serve_load_socket_smoke)'
  )
else
  echo "== ctest (tier-1 + fault suite) =="
  # halt_on_error keeps a UBSan report from being drowned out by later
  # tests; detect_leaks stays on (the default) to catch arena/workspace
  # mistakes.
  (
    cd "${BUILD_DIR}"
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --output-on-failure -j "$(nproc)"
  )
fi

echo
echo "sanitizer pass clean (${MODE})"
