#pragma once
// Low-overhead profiling spans and monotonic counters (ISSUE 2).
//
// The BO pipeline ranks topologies by accuracy, firing rate, and MACs, but
// the trainer was a black box: nothing reported where a timestep's
// wall-clock goes (dense vs. sparse dispatch, gemm vs. im2col, forward vs.
// BPTT backward). This subsystem instruments the hot paths with RAII
// scoped spans keyed by (category, name) and monotonic counters, feeding
// two consumers (telemetry/trace_export.h):
//   * a Chrome trace_event JSON file (load in chrome://tracing / Perfetto)
//   * an aggregate per-(category, name) summary table.
//
// Cost model: telemetry is OFF by default. A disabled span is ONE relaxed
// atomic load and a branch — no clock read, no allocation, no locking —
// so instrumenting per-timestep layer calls stays under the 2% overhead
// budget (DESIGN.md §5c). Enabled spans take two steady_clock reads and
// append to a per-thread buffer (amortized pointer bump; the buffer is
// registered once per thread and survives thread exit so snapshots never
// lose data). Aggregation is deferred to snapshot time.
//
// Usage:
//   SNNSKIP_SPAN("conv.fwd.dense", name_);        // span + trace event
//   SNNSKIP_SPAN_AGG("gemm", "gemm_nt");          // aggregate only (no
//                                                 // trace event; for
//                                                 // per-image-granularity
//                                                 // calls that would bloat
//                                                 // the trace)
//   Telemetry::count("dispatch.sparse");          // monotonic counter
//   Telemetry::count_max("arena.hw", hw);         // monotonic maximum
//
// Enablement: SNNSKIP_TELEMETRY=1 at startup, or Telemetry::set_enabled()
// (what `--trace-out` does in the examples).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace snnskip {

class Telemetry {
 public:
  /// Master switch; every instrumentation site checks exactly this once.
  static bool enabled();
  static void set_enabled(bool on);

  /// Add `delta` to the named monotonic counter. No-op while disabled.
  static void count(const char* name, double delta = 1.0);
  /// Raise the named counter to at least `value` (high-water tracking).
  static void count_max(const char* name, double value);

  /// Snapshot of all counters (copied under the lock).
  static std::map<std::string, double> counters();

  /// Drop all recorded spans, trace events, and counters (tests; between
  /// runs sharing a process).
  static void reset();

  /// Nanoseconds since the process-wide telemetry epoch (first use).
  static std::uint64_t now_ns();
};

namespace telemetry {

/// One completed span occurrence destined for the Chrome trace.
struct TraceEvent {
  std::string name;
  const char* cat = "";       // category string literals live forever
  std::uint64_t ts_ns = 0;    // start, relative to the telemetry epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  char phase = 'X';           // 'X' complete span, 'i' instant event
};

/// Aggregate across all occurrences of one (category, name) span key.
struct SpanStat {
  std::string cat;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

struct Snapshot {
  std::vector<TraceEvent> events;  // merged across threads, sorted by ts
  std::vector<SpanStat> spans;     // includes aggregate-only spans
  std::map<std::string, double> counters;
  std::uint64_t dropped_events = 0;  // trace-buffer cap overflows
};

/// Merge every thread's buffers. Safe to call while other threads are
/// still recording (their in-flight spans simply miss the snapshot).
Snapshot snapshot();

/// Emit an instant event (a vertical marker in the trace, e.g. epoch
/// boundaries). No-op while disabled.
void instant(const char* cat, std::string_view name);

/// Record a completed span with explicit timestamps (both relative to the
/// telemetry epoch, i.e. Telemetry::now_ns values). For intervals that
/// cannot be a ScopedSpan because they start and end on different threads
/// — e.g. a serving request's queue wait, which begins on the client
/// thread and ends when a worker pops the request. Aggregates like a
/// normal span and (when `emit_trace`) appends one trace event attributed
/// to the calling thread. No-op while disabled.
void record_span(const char* cat, std::string_view name,
                 std::uint64_t start_ns, std::uint64_t dur_ns,
                 bool emit_trace = true);

/// Per-thread trace-event cap; beyond it spans still aggregate but stop
/// emitting trace events (counted in Snapshot::dropped_events).
constexpr std::size_t kMaxTraceEventsPerThread = 1u << 21;  // ~2M

/// RAII span. Construct via the SNNSKIP_SPAN* macros.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, std::string_view name, bool emit_trace) {
    if (!Telemetry::enabled()) return;
    begin(cat, name, emit_trace);
  }
  ~ScopedSpan() {
    if (active_) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* cat, std::string_view name, bool emit_trace);
  void end();

  bool active_ = false;
  bool emit_trace_ = true;
  const char* cat_ = "";
  std::string_view name_;  // must outlive the span (layer names do)
  std::uint64_t start_ns_ = 0;
};

}  // namespace telemetry
}  // namespace snnskip

#define SNNSKIP_SPAN_CONCAT_IMPL(a, b) a##b
#define SNNSKIP_SPAN_CONCAT(a, b) SNNSKIP_SPAN_CONCAT_IMPL(a, b)

/// Time this scope and emit one Chrome trace event per occurrence.
#define SNNSKIP_SPAN(cat, name)                          \
  ::snnskip::telemetry::ScopedSpan SNNSKIP_SPAN_CONCAT(  \
      snnskip_span_, __LINE__)(cat, name, /*emit_trace=*/true)

/// Time this scope into the aggregate table only (no trace event) — for
/// sites called at per-image granularity inside the timestep loop.
#define SNNSKIP_SPAN_AGG(cat, name)                      \
  ::snnskip::telemetry::ScopedSpan SNNSKIP_SPAN_CONCAT(  \
      snnskip_span_, __LINE__)(cat, name, /*emit_trace=*/false)
