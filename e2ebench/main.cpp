// End-to-end benchmark binary (run through e2ebench/run.py).
//
//   e2e_bench --workload search|serve-sparse|serve-dense --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the workload with telemetry off and prints the
// end-to-end metrics. --trace 1 runs the same untraced measurement, then
// the workload once more with telemetry on, and prints the per-layer
// metrics of that traced run (plus the tracing overhead and attribution
// checks). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 1 when an output check failed, 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "util/cli.h"
#include "util/logging.h"

namespace e2e {

void Result::fail_check(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "e2e: output check failed: %s\n", why.c_str());
}

void print_named(const std::string& workload, const std::vector<Metric>& named) {
  for (const Metric& m : named) {
    std::fprintf(stderr, "%s: %s = %.6g %s\n", workload.c_str(), m.name.c_str(),
                 m.value, m.unit.c_str());
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

/// The benchmark pins the system's configuration: SNNSKIP_* variables in
/// the caller's environment (worker counts, thresholds, journals, ...)
/// would change what is measured, so they are dropped before the library
/// reads any of them.
void clear_library_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("SNNSKIP_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int run(int argc, char** argv) {
  clear_library_environment();
  snnskip::CliArgs args(argc, argv);
  Options opts;
  opts.workload = args.get("workload", "");
  opts.seed = args.get_u64("seed", 1);
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.work_dir = args.get("work-dir", "");
  if (opts.work_dir.empty() || opts.seconds <= 0.0) {
    std::fprintf(stderr, "e2e_bench: --work-dir and --seconds > 0 required\n");
    return 2;
  }
  std::filesystem::create_directories(opts.work_dir);
  snnskip::set_log_level(snnskip::LogLevel::Warn);

  Result r;
  if (opts.workload == "search") {
    r = run_search(opts);
  } else if (opts.workload == "serve-sparse") {
    r = run_serve(opts, /*dense=*/false);
  } else if (opts.workload == "serve-dense") {
    r = run_serve(opts, /*dense=*/true);
  } else {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  print_result(r);
  return r.correct ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
