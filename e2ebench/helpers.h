#pragma once
// Pure helpers of the end-to-end benchmark, kept apart from the workloads
// so helpers_test.cpp can pin them without a server or a training run:
//
//   * the percentile rule (report the highest percentile that still has
//     at least ten samples beyond it);
//   * self time from nested spans (a span's duration minus the part of
//     its interval that its direct children on the same thread cover);
//   * the SLO ladder walk (rates walked upward; a failed request is a
//     miss of the latency limit);
//   * the seeded open-loop arrival schedule and request payloads (the
//     same seed gives the same inputs, byte for byte).

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------- stats

/// Highest percentile in {99.9, 99, 95, 90, 75, 50} with at least ten of
/// `n` samples beyond it; 0 when even the median lacks ten.
double supported_percentile(std::size_t n);

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty input.
double percentile(std::vector<double> v, double p);

double median(std::vector<double> v);

// ---------------------------------------------------------------- spans

/// One completed span on one thread (telemetry epoch nanoseconds).
struct SpanEvent {
  std::string cat;
  std::string name;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Self time of every event, in input order: its duration minus the
/// durations of its direct children — events on the same thread whose
/// interval lies inside it with no enclosing event in between. An event
/// that only partly overlaps another is not its child.
std::vector<std::uint64_t> self_times(const std::vector<SpanEvent>& events);

// ---------------------------------------------------------------- SLO ladder

/// Outcome of one rate rung of an open-loop run.
struct RungResult {
  double rate_rps = 0.0;
  std::int64_t sent = 0;
  /// Answered Ok, matching the reference, within the latency limit.
  std::int64_t within_limit = 0;
  /// Rejected, expired, failed, mismatching or unanswered.
  std::int64_t failed = 0;
  /// Generator lateness (send time minus due time) over the first and
  /// the last tenth of the rung's sends, medians in ms.
  double lag_first_ms = 0.0;
  double lag_last_ms = 0.0;
};

/// At least 99% of the requests sent finish within the limit (failures
/// count as misses) and the generator's lag does not grow by more than a
/// millisecond from the first tenth of the rung to the last.
bool rung_meets_slo(const RungResult& r);

/// Index of the last rung of the upward walk that meets the SLO with
/// every rung below it meeting it too; -1 when the first rung misses.
int highest_rung_at_slo(const std::vector<RungResult>& rungs);

/// Whether the walk goes on after `done` (the rungs run so far): rungs up
/// to and including `mandatory` always run; above it the walk stops at
/// the first rung that misses the SLO.
bool continue_walk(const std::vector<RungResult>& done, int mandatory);

// ---------------------------------------------------------------- inputs

/// splitmix64 step: the benchmark's only source of randomness.
std::uint64_t splitmix64(std::uint64_t& state);

/// Uniform double in [0, 1) from 53 random bits.
double uniform01(std::uint64_t& state);

/// Poisson arrivals: `count` due times (ns after the rung's start) with
/// exponential gaps of mean 1/rate_rps, a pure function of the seed.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate_rps,
                                           std::size_t count);

/// One request payload: `t` frames of c*h*w binary events, each element
/// on with probability `density`, a pure function of (seed, index).
std::vector<std::vector<float>> event_payload(std::uint64_t seed,
                                              std::uint64_t index,
                                              std::int64_t t, std::int64_t c,
                                              std::int64_t h, std::int64_t w,
                                              double density);

/// Derive an independent stream seed for `purpose` from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

}  // namespace e2e
