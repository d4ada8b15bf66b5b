// Tests for the telemetry subsystem (ISSUE 2): scoped spans, counters,
// Chrome-trace export/validation, and the disabled-mode cost contract.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/adjacency.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace snnskip {
namespace {

// Every test starts from a clean, disabled registry and leaves it that way
// so ordering within the binary cannot matter.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry::set_enabled(false);
    Telemetry::reset();
  }
  void TearDown() override {
    Telemetry::set_enabled(false);
    Telemetry::reset();
  }
};

const telemetry::SpanStat* find_span(const telemetry::Snapshot& snap,
                                     const std::string& cat,
                                     const std::string& name) {
  for (const auto& s : snap.spans) {
    if (s.cat == cat && s.name == name) return &s;
  }
  return nullptr;
}

TEST_F(TelemetryTest, NestedSpansRecordContainedIntervals) {
  Telemetry::set_enabled(true);
  {
    SNNSKIP_SPAN("outer", "fit");
    {
      SNNSKIP_SPAN("inner", "forward");
    }
    {
      SNNSKIP_SPAN("inner", "backward");
    }
  }
  const telemetry::Snapshot snap = telemetry::snapshot();
  ASSERT_EQ(snap.events.size(), 3u);

  const telemetry::SpanStat* outer = find_span(snap, "outer", "fit");
  const telemetry::SpanStat* fwd = find_span(snap, "inner", "forward");
  const telemetry::SpanStat* bwd = find_span(snap, "inner", "backward");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(fwd->count, 1u);
  EXPECT_EQ(bwd->count, 1u);
  // The parent interval encloses both children.
  EXPECT_GE(outer->total_ns, fwd->total_ns + bwd->total_ns);

  // Events come back sorted by start time and nested inside the parent.
  const telemetry::TraceEvent* parent = nullptr;
  for (const auto& e : snap.events) {
    if (e.name == "fit") parent = &e;
  }
  ASSERT_NE(parent, nullptr);
  for (const auto& e : snap.events) {
    if (&e == parent) continue;
    EXPECT_GE(e.ts_ns, parent->ts_ns);
    EXPECT_LE(e.ts_ns + e.dur_ns, parent->ts_ns + parent->dur_ns);
  }
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].ts_ns, snap.events[i].ts_ns);
  }
}

TEST_F(TelemetryTest, AggregateOnlySpansSkipTraceEvents) {
  Telemetry::set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    SNNSKIP_SPAN_AGG("gemm", "gemm_nt");
  }
  const telemetry::Snapshot snap = telemetry::snapshot();
  EXPECT_TRUE(snap.events.empty());
  const telemetry::SpanStat* s = find_span(snap, "gemm", "gemm_nt");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 10u);
}

TEST_F(TelemetryTest, CountersAccumulateAndTrackMaxima) {
  Telemetry::set_enabled(true);
  Telemetry::count("dispatch.sparse");
  Telemetry::count("dispatch.sparse");
  Telemetry::count("dispatch.nnz", 40.0);
  Telemetry::count_max("arena.hw", 100.0);
  Telemetry::count_max("arena.hw", 60.0);  // lower value must not win
  Telemetry::count_max("arena.hw", 250.0);

  const std::map<std::string, double> c = Telemetry::counters();
  EXPECT_DOUBLE_EQ(c.at("dispatch.sparse"), 2.0);
  EXPECT_DOUBLE_EQ(c.at("dispatch.nnz"), 40.0);
  EXPECT_DOUBLE_EQ(c.at("arena.hw"), 250.0);

  Telemetry::reset();
  EXPECT_TRUE(Telemetry::counters().empty());
}

TEST_F(TelemetryTest, ConcurrentSpansAndCountersMergeLosslessly) {
  Telemetry::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        SNNSKIP_SPAN("mt", "work");
        Telemetry::count("mt.iterations");
      }
    });
  }
  for (auto& th : threads) th.join();

  const telemetry::Snapshot snap = telemetry::snapshot();
  const telemetry::SpanStat* s = find_span(snap, "mt", "work");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.events.size(), static_cast<std::size_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(snap.counters.at("mt.iterations"),
                   static_cast<double>(kThreads) * kIters);

  // Buffers of exited threads must survive into later snapshots too.
  const telemetry::Snapshot again = telemetry::snapshot();
  const telemetry::SpanStat* s2 = find_span(again, "mt", "work");
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->count, s->count);
}

TEST_F(TelemetryTest, ChromeTraceRoundTripsThroughValidator) {
  Telemetry::set_enabled(true);
  {
    SNNSKIP_SPAN("train", "epoch");
    SNNSKIP_SPAN("conv.fwd.dense", "features \"odd\" \\name");
  }
  telemetry::instant("train", "epoch 0 end");

  const std::string path = "telemetry_test_trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(path, &error)) << error;
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, CompiledInferenceEmitsSpansAndCounters) {
  // The compiled-inference engine (ISSUE 6) instruments each step with an
  // infer.step span plus infer.* counters; the whole run must also export
  // as a valid Chrome trace (round-trip through the validator).
  ModelConfig cfg;
  cfg.width = 8;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 10;
  cfg.seed = 7;
  Network net =
      build_model("single_block", cfg, default_adjacencies("single_block", cfg));
  const Shape in_shape{1, 2, 8, 8};
  infer::Plan plan = infer::compile_plan(net, in_shape);
  plan.model_name = "single_block";  // the infer.step span label
  infer::Engine eng(
      std::make_shared<const infer::Plan>(std::move(plan)));

  Telemetry::set_enabled(true);
  Rng rng(3);
  const std::int64_t steps = 4;
  for (std::int64_t t = 0; t < steps; ++t) {
    eng.step(Tensor::bernoulli(in_shape, rng, 0.1f));
  }

  const telemetry::Snapshot snap = telemetry::snapshot();
  const telemetry::SpanStat* s = find_span(snap, "infer.step", "single_block");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, static_cast<std::uint64_t>(steps));
  EXPECT_DOUBLE_EQ(snap.counters.at("infer.steps"),
                   static_cast<double>(steps));
  // Dispatch counters mirror the engine's own stats exactly.
  const auto& st = eng.stats();
  double layers = 0.0;
  for (const char* k : {"infer.packed_layers", "infer.dense_layers"}) {
    auto it = snap.counters.find(k);
    if (it != snap.counters.end()) layers += it->second;
  }
  EXPECT_DOUBLE_EQ(layers, static_cast<double>(st.packed_dispatches +
                                               st.dense_dispatches));
  EXPECT_DOUBLE_EQ(snap.counters.at("infer.spikes_popcount"),
                   static_cast<double>(st.spikes));

  const std::string path = "telemetry_test_infer_trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(path, &error)) << error;
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ValidatorRejectsMalformedTraces) {
  const std::string path = "telemetry_test_bad.json";
  std::string error;

  {
    std::ofstream f(path);
    f << "{\"not\": \"an array\"}\n";
  }
  EXPECT_FALSE(validate_chrome_trace(path, &error));

  {
    std::ofstream f(path);
    f << "[{\"name\": \"x\", \"ph\": \"X\", \"ts\": 1.0}]\n";  // no dur/pid/tid
  }
  EXPECT_FALSE(validate_chrome_trace(path, &error));

  {
    std::ofstream f(path);
    f << "[]\n";  // empty trace is a validation failure for the smoke
  }
  EXPECT_FALSE(validate_chrome_trace(path, &error));

  std::remove(path.c_str());
  EXPECT_FALSE(validate_chrome_trace("telemetry_test_missing.json", &error));
}

TEST_F(TelemetryTest, SummaryListsSpansAndCounters) {
  Telemetry::set_enabled(true);
  {
    SNNSKIP_SPAN("train", "batch");
  }
  Telemetry::count("spikes", 123.0);
  const std::string summary = telemetry_summary();
  EXPECT_NE(summary.find("train"), std::string::npos);
  EXPECT_NE(summary.find("batch"), std::string::npos);
  EXPECT_NE(summary.find("spikes"), std::string::npos);
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(Telemetry::enabled());
  {
    SNNSKIP_SPAN("off", "span");
    SNNSKIP_SPAN_AGG("off", "agg");
  }
  Telemetry::count("off.counter");
  Telemetry::count_max("off.max", 10.0);
  telemetry::instant("off", "marker");

  const telemetry::Snapshot snap = telemetry::snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST_F(TelemetryTest, DisabledSpansAreNearZeroCost) {
  ASSERT_FALSE(Telemetry::enabled());
  // The contract is one relaxed atomic load + branch per disabled span.
  // Assert a deliberately loose wall-clock bound (µs-per-span territory
  // would indicate an accidental clock read or allocation on the off
  // path): 1M disabled spans in well under a second even on slow CI.
  constexpr int kIters = 1000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    SNNSKIP_SPAN("off", "hot");
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_span =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  EXPECT_LT(ns_per_span, 250.0);
  EXPECT_TRUE(telemetry::snapshot().spans.empty());
}

TEST_F(TelemetryTest, JsonEscapeHandlesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST_F(TelemetryTest, JsonArrayWriterEmitsParseableRows)
{
  const std::string path = "telemetry_test_writer.json";
  {
    JsonArrayWriter json(path);
    ASSERT_TRUE(json.ok());
    json.begin_row();
    json.field("name", std::string("row \"one\""));
    json.field("ph", "X");
    json.field_fixed("ts", 1234567.891, 3);
    json.field("dur", 2.5);
    json.field("pid", static_cast<std::int64_t>(0));
    json.field("tid", static_cast<std::int64_t>(1));
    json.end_row();
  }
  // The writer's output is itself a valid chrome trace when the required
  // keys are present — reuse the validator as the parser.
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(path, &error)) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace snnskip
