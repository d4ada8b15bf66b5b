#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace e2e {

double supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::vector<std::uint64_t> self_times(const std::vector<SpanEvent>& events) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Per thread, parents sort before the children they contain: earlier
  // start first, and at equal starts the longer span first.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanEvent& x = events[a];
    const SpanEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    return x.dur_ns > y.dur_ns;
  });
  auto contains = [&](std::size_t outer, std::size_t inner) {
    const SpanEvent& o = events[outer];
    const SpanEvent& i = events[inner];
    return o.tid == i.tid && i.ts_ns >= o.ts_ns &&
           i.ts_ns + i.dur_ns <= o.ts_ns + o.dur_ns;
  };
  std::vector<std::uint64_t> covered(events.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t e : order) {
    while (!stack.empty() && !contains(stack.back(), e)) stack.pop_back();
    if (!stack.empty()) covered[stack.back()] += events[e].dur_ns;
    stack.push_back(e);
  }
  std::vector<std::uint64_t> self(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[i] = events[i].dur_ns - std::min(events[i].dur_ns, covered[i]);
  }
  return self;
}

bool rung_meets_slo(const RungResult& r) {
  if (r.sent <= 0) return false;
  const bool enough = static_cast<double>(r.within_limit) >=
                      0.99 * static_cast<double>(r.sent);
  const bool lag_steady = r.lag_last_ms - r.lag_first_ms <= 1.0;
  return enough && lag_steady;
}

int highest_rung_at_slo(const std::vector<RungResult>& rungs) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_meets_slo(rungs[i])) break;
    best = static_cast<int>(i);
  }
  return best;
}

bool continue_walk(const std::vector<RungResult>& done, int mandatory) {
  if (static_cast<int>(done.size()) <= mandatory) return true;
  return rung_meets_slo(done.back());
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate_rps,
                                           std::size_t count) {
  std::vector<std::int64_t> due(count);
  std::uint64_t state = seed;
  double t_s = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t_s += -std::log1p(-uniform01(state)) / rate_rps;
    due[i] = static_cast<std::int64_t>(t_s * 1e9);
  }
  return due;
}

std::vector<std::vector<float>> event_payload(std::uint64_t seed,
                                              std::uint64_t index,
                                              std::int64_t t, std::int64_t c,
                                              std::int64_t h, std::int64_t w,
                                              double density) {
  std::uint64_t state = derive_seed(seed, index);
  std::vector<std::vector<float>> frames(static_cast<std::size_t>(t));
  for (auto& f : frames) {
    f.resize(static_cast<std::size_t>(c * h * w));
    for (float& v : f) v = uniform01(state) < density ? 1.f : 0.f;
  }
  return frames;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t state = seed ^ (0xd1b54a32d192ed03ULL * (purpose + 1));
  return splitmix64(state);
}

}  // namespace e2e
