#pragma once
// Shared plumbing of the end-to-end benchmark binary (main.cpp): run
// options, the result every workload returns, and small timing helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files: checkpoints, manifests, traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed output check (the run then exits nonzero).
  void fail_check(const std::string& why);
};

Result run_search(const Options& opts);
Result run_serve(const Options& opts, bool dense);

/// Print the workload's own named end-to-end figures to stderr, one per
/// line, by name and unit.
void print_named(const std::string& workload, const std::vector<Metric>& named);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A benchmark-owned span around one call into a layer: category "bench",
/// name "<layer>.<what>" so the trace analysis (layers.h) charges its self
/// time to <layer>. Inert while telemetry is off.
#define E2E_SPAN(name) SNNSKIP_SPAN("bench", name)

}  // namespace e2e
