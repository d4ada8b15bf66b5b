// Unit tests for the benchmark's own helpers (helpers.h). No framework:
// every CHECK that fails prints its line, and the binary exits 1.
//
//   cmake --build .bench_build/e2ebench --target e2e_helpers_test
//   .bench_build/e2ebench/e2e_helpers_test

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "helpers.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using e2e::RungResult;
using e2e::SpanEvent;

void percentile_rule() {
  // The highest percentile with at least ten samples beyond it.
  CHECK(e2e::supported_percentile(10000) == 99.9);
  CHECK(e2e::supported_percentile(9999) == 99.0);
  CHECK(e2e::supported_percentile(1000) == 99.0);
  CHECK(e2e::supported_percentile(999) == 95.0);
  CHECK(e2e::supported_percentile(200) == 95.0);
  CHECK(e2e::supported_percentile(100) == 90.0);
  CHECK(e2e::supported_percentile(40) == 75.0);
  CHECK(e2e::supported_percentile(20) == 50.0);
  CHECK(e2e::supported_percentile(19) == 0.0);

  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, nearest rank
  CHECK(e2e::percentile(v, 99) == 99.0);
  CHECK(e2e::percentile(v, 50) == 50.0);
  CHECK(e2e::percentile(v, 100) == 100.0);
  CHECK(e2e::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(e2e::percentile({}, 50) == 0.0);
}

void self_time_from_nested_spans() {
  // Thread 1: parent [0,100) holding child [10,40) (which holds
  // grandchild [15,25)) and child [50,70); a span [90,120) only overlaps
  // the parent's end, so it is a sibling, not a child. Thread 2 runs
  // during the parent but is never its child.
  const std::vector<SpanEvent> ev = {
      {"bench", "parent", 0, 100, 1},  {"nn", "child", 10, 30, 1},
      {"gemm", "grand", 15, 10, 1},    {"snn", "child2", 50, 20, 1},
      {"train", "partial", 90, 30, 1}, {"train", "other", 0, 1000, 2},
  };
  const std::vector<std::uint64_t> self = e2e::self_times(ev);
  CHECK(self[0] == 50);  // 100 - 30 - 20: only direct children count
  CHECK(self[1] == 20);  // 30 - 10
  CHECK(self[2] == 10);
  CHECK(self[3] == 20);
  CHECK(self[4] == 30);
  CHECK(self[5] == 1000);

  // Same start: the longer span is the parent.
  const std::vector<SpanEvent> same = {{"a", "inner", 5, 10, 1},
                                       {"a", "outer", 5, 40, 1}};
  const auto s2 = e2e::self_times(same);
  CHECK(s2[0] == 10);
  CHECK(s2[1] == 30);
}

RungResult rung(double rate, std::int64_t sent, std::int64_t within,
                std::int64_t failed, double lag_first = 0.1,
                double lag_last = 0.1) {
  RungResult r;
  r.rate_rps = rate;
  r.sent = sent;
  r.within_limit = within;
  r.failed = failed;
  r.lag_first_ms = lag_first;
  r.lag_last_ms = lag_last;
  return r;
}

void slo_ladder_walk() {
  CHECK(e2e::rung_meets_slo(rung(100, 1000, 990, 0)));   // exactly 99%
  CHECK(!e2e::rung_meets_slo(rung(100, 1000, 989, 0)));  // 98.9%
  // A failed request is a miss: fast answers do not offset failures.
  CHECK(!e2e::rung_meets_slo(rung(100, 100, 98, 2)));
  // A generator that falls behind invalidates the rung.
  CHECK(!e2e::rung_meets_slo(rung(100, 1000, 1000, 0, 0.1, 1.5)));
  CHECK(!e2e::rung_meets_slo(rung(100, 0, 0, 0)));

  const std::vector<RungResult> walk = {
      rung(100, 1000, 1000, 0), rung(200, 1000, 995, 0),
      rung(400, 1000, 900, 100), rung(800, 1000, 1000, 0)};
  // The walk stops at the first miss, even if a later rung passes.
  CHECK(e2e::highest_rung_at_slo(walk) == 1);
  CHECK(e2e::highest_rung_at_slo({rung(100, 1000, 10, 990)}) == -1);

  // Rungs up to the mandatory one always run; above it the walk goes on
  // only while the last rung met the SLO.
  CHECK(e2e::continue_walk({}, 1));
  CHECK(e2e::continue_walk({rung(100, 1000, 0, 1000)}, 1));
  CHECK(!e2e::continue_walk({rung(100, 1000, 1000, 0), rung(200, 1000, 0, 1000)}, 1));
  CHECK(e2e::continue_walk({rung(100, 1000, 1000, 0), rung(200, 1000, 1000, 0)}, 1));
}

void seed_determinism() {
  const auto a = e2e::poisson_schedule(7, 200.0, 2000);
  const auto b = e2e::poisson_schedule(7, 200.0, 2000);
  const auto c = e2e::poisson_schedule(8, 200.0, 2000);
  CHECK(a == b);
  CHECK(a != c);
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] >= a[i - 1];
  CHECK(increasing);
  const double mean_gap_ms = static_cast<double>(a.back()) / 1e6 / 2000.0;
  CHECK(std::fabs(mean_gap_ms - 5.0) < 0.5);  // 1 / 200 rps

  const auto p = e2e::event_payload(7, 3, 4, 2, 16, 16, 0.05);
  const auto q = e2e::event_payload(7, 3, 4, 2, 16, 16, 0.05);
  const auto other_index = e2e::event_payload(7, 4, 4, 2, 16, 16, 0.05);
  const auto other_seed = e2e::event_payload(8, 3, 4, 2, 16, 16, 0.05);
  CHECK(p == q);
  CHECK(p != other_index);
  CHECK(p != other_seed);
  CHECK(p.size() == 4 && p[0].size() == 2 * 16 * 16);
  double on = 0.0, n = 0.0;
  for (const auto& f : e2e::event_payload(1, 0, 50, 2, 16, 16, 0.4)) {
    for (float v : f) {
      CHECK(v == 0.f || v == 1.f);
      on += v;
      n += 1.0;
    }
  }
  CHECK(std::fabs(on / n - 0.4) < 0.02);
  CHECK(e2e::derive_seed(1, 2) == e2e::derive_seed(1, 2));
  CHECK(e2e::derive_seed(1, 2) != e2e::derive_seed(1, 3));
}

}  // namespace

int main() {
  percentile_rule();
  self_time_from_nested_spans();
  slo_ladder_walk();
  seed_determinism();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2e_helpers_test: all checks passed\n");
  return 0;
}
