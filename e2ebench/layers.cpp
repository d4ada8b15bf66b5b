#include "layers.h"

namespace e2e {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::string layer_of(const std::string& cat, const std::string& name) {
  if (cat == "bench") return name.substr(0, name.find('.'));
  for (const char* p : {"conv", "dwconv", "linear", "bn"}) {
    if (starts_with(cat, p)) return "nn";
  }
  if (starts_with(cat, "lif") || starts_with(cat, "plif")) return "snn";
  if (starts_with(cat, "block") || cat == "net") return "graph";
  if (cat == "gemm") return "tensor";
  if (cat == "bo") return "core";
  if (starts_with(cat, "infer")) return "infer";
  if (starts_with(cat, "serve")) return "serve";
  return cat;  // train, tune, ... are already module names
}

TraceView::TraceView(snnskip::telemetry::Snapshot snap) : snap_(std::move(snap)) {
  events_.reserve(snap_.events.size());
  for (const auto& e : snap_.events) {
    if (e.phase != 'X') continue;
    events_.push_back({e.cat, e.name, e.ts_ns, e.dur_ns, e.tid});
  }
  self_ = self_times(events_);
}

double TraceView::counter(const std::string& name) const {
  const auto it = snap_.counters.find(name);
  return it == snap_.counters.end() ? 0.0 : it->second;
}

double TraceView::agg_total_s(const std::string& cat,
                              const std::string& name) const {
  std::uint64_t ns = 0;
  for (const auto& s : snap_.spans) {
    if (s.cat == cat && (name.empty() || s.name == name)) ns += s.total_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> TraceView::agg_by_name(
    const std::string& cat) const {
  std::map<std::string, double> out;
  for (const auto& s : snap_.spans) {
    if (s.cat == cat) out[s.name] += static_cast<double>(s.total_ns) * 1e-9;
  }
  return out;
}

std::vector<double> TraceView::durations_ms(const std::string& cat_prefix,
                                            const std::string& name) const {
  std::vector<double> out;
  for (const SpanEvent& e : events_) {
    if (starts_with(e.cat, cat_prefix) && (name.empty() || e.name == name)) {
      out.push_back(static_cast<double>(e.dur_ns) * 1e-6);
    }
  }
  return out;
}

double TraceView::self_s(const std::string& cat_prefix) const {
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (starts_with(events_[i].cat, cat_prefix)) ns += self_[i];
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> TraceView::layer_self_s(
    const std::string& gemm_caller_layer) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out[layer_of(events_[i].cat, events_[i].name)] +=
        static_cast<double>(self_[i]) * 1e-9;
  }
  const double gemm_s = agg_total_s("gemm");
  out["tensor"] += gemm_s;
  out[gemm_caller_layer] -= gemm_s;
  return out;
}

}  // namespace e2e
