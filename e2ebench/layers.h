#pragma once
// Trace analysis for the traced run: turns one telemetry snapshot into
// per-layer self times, span-duration distributions and counters.
//
// Layers are the library's src/ modules. Program spans map to them by
// category (conv/linear/bn -> nn, lif/plif -> snn, gemm -> tensor,
// bo -> core, ...). The benchmark's own spans have category "bench" and a
// name "<layer>.<call>", so the part of a wrapped call that the program's
// own spans do not cover is charged to the layer that was called.
//
// Aggregate-only spans (gemm, infer.op, serve.batch_assemble) carry no
// trace events, so event nesting cannot see them. Their totals come from
// the aggregate table: gemm time is moved from its caller's layer (nn in
// training, infer in the compiled engine) to tensor; infer.op and
// serve.batch_assemble nest inside spans of their own layer and need no
// move.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "helpers.h"
#include "telemetry/telemetry.h"

namespace e2e {

/// The src/ module (or "bench" / "gen" for the benchmark itself) that a
/// span belongs to.
std::string layer_of(const std::string& cat, const std::string& name);

class TraceView {
 public:
  explicit TraceView(snnskip::telemetry::Snapshot snap);

  const std::vector<SpanEvent>& events() const { return events_; }
  const std::vector<std::uint64_t>& self_ns() const { return self_; }

  double counter(const std::string& name) const;
  /// Sum of the aggregate table's totals over keys with category `cat`
  /// (and name `name` when given), seconds.
  double agg_total_s(const std::string& cat, const std::string& name = "") const;
  /// Aggregate totals per span name for category `cat`, seconds.
  std::map<std::string, double> agg_by_name(const std::string& cat) const;

  /// Durations (ms) of every event whose category starts with
  /// `cat_prefix` and whose name equals `name` (any name when empty).
  std::vector<double> durations_ms(const std::string& cat_prefix,
                                   const std::string& name = "") const;
  /// Summed self time (s) of events whose category starts with
  /// `cat_prefix`.
  double self_s(const std::string& cat_prefix) const;

  /// Self time per layer over all threads, seconds; aggregate-only gemm
  /// time is moved from `gemm_caller_layer` to "tensor".
  std::map<std::string, double> layer_self_s(
      const std::string& gemm_caller_layer) const;

 private:
  snnskip::telemetry::Snapshot snap_;
  std::vector<SpanEvent> events_;
  std::vector<std::uint64_t> self_;
};

}  // namespace e2e
