// Tests for the serving subsystem (ISSUE 7): ModelRegistry LRU
// eviction/reload round-trips, manifest parsing and spec validation,
// Server answers bitwise equal to direct Engine execution, admission
// control under the serve.queue_full fault site, graceful drain, the
// per-model telemetry counter keying that keeps concurrent engines'
// stats from bleeding into each other, and the wire protocol's framing
// invariants (round-trip, overflow-proof geometry validation, header
// checksum vs torn-payload split).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/inject.h"
#include "infer/engine.h"
#include "serve/model_registry.h"
#include "serve/options.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"
#include "train/checkpoint.h"
#include "util/rng.h"

namespace snnskip {
namespace {

using serve::LoadedModel;
using serve::ModelHandle;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::ServeOptions;
using serve::Server;

ModelSpec tiny_spec(const std::string& name) {
  ModelSpec spec;
  spec.name = name;
  spec.family = "single_block";
  spec.config.width = 8;
  spec.config.in_channels = 2;
  spec.config.num_classes = 10;
  spec.config.max_timesteps = 4;
  spec.config.seed = 7;
  // Low threshold keeps the tiny net firing all the way to the head, so
  // output comparisons are non-vacuous (theta 1.0 silences it entirely).
  spec.config.lif.threshold = 0.25f;
  spec.warm_bn_steps = 4;
  return spec;
}

std::vector<Tensor> request_frames(const Shape& frame, std::int64_t steps,
                                   std::uint64_t seed, float p = 0.3f) {
  Rng rng(seed);
  std::vector<Tensor> frames;
  for (std::int64_t t = 0; t < steps; ++t) {
    frames.push_back(Tensor::bernoulli(frame, rng, p));
  }
  return frames;
}

// Rate-accumulated head output for one request computed directly on a
// leased engine: the answer the server must reproduce bitwise.
Tensor direct_reference(const ModelHandle& model,
                        const std::vector<Tensor>& frames) {
  const infer::Plan& plan = *model->plan();
  const std::int64_t classes = plan.output_shape.numel();
  LoadedModel::Lease lease = model->lease();
  Tensor out;
  Tensor acc(Shape{classes});
  for (const Tensor& f : frames) {
    lease->step(f.reshape(plan.input_shape), &out);
    for (std::int64_t c = 0; c < classes; ++c) {
      acc.data()[c] += out.data()[c];
    }
  }
  return acc;
}

// --- ModelRegistry ----------------------------------------------------------

TEST(ModelRegistryTest, CacheHitsRefreshAndEvictionIsLru) {
  ModelRegistry reg(2);
  reg.load(tiny_spec("a"));
  reg.load(tiny_spec("b"));
  EXPECT_EQ(reg.cold_loads(), 2);
  EXPECT_EQ(reg.resident(), 2u);

  reg.load(tiny_spec("a"));          // refresh a => b becomes LRU
  reg.load(tiny_spec("c"));          // evicts b
  EXPECT_EQ(reg.cold_loads(), 3);
  EXPECT_TRUE(reg.is_resident("a"));
  EXPECT_FALSE(reg.is_resident("b"));
  EXPECT_TRUE(reg.is_resident("c"));

  reg.load(tiny_spec("b"));  // cold again
  EXPECT_EQ(reg.cold_loads(), 4);
}

TEST(ModelRegistryTest, EvictReloadRoundTripIsBitwiseReproducible) {
  // An evicted model rebuilt from its spec (same seed, same fixed BN
  // warmup stream) must produce identical outputs — LRU eviction can
  // never silently change serving results.
  ModelRegistry reg(1);
  const ModelSpec spec = tiny_spec("rt");
  ModelHandle first = reg.load(spec);
  const auto frames = request_frames(
      Shape{spec.config.in_channels, spec.in_h, spec.in_w}, 4, 11);
  const Tensor before = direct_reference(first, frames);
  ASSERT_NE(before.sum(), 0.0);  // guard: comparison must be non-vacuous

  reg.load(tiny_spec("other"));  // capacity 1: evicts "rt"
  EXPECT_FALSE(reg.is_resident("rt"));
  ModelHandle second = reg.load(spec);  // cold reload
  EXPECT_EQ(reg.cold_loads(), 3);
  EXPECT_NE(first.get(), second.get());

  const Tensor after = direct_reference(second, frames);
  EXPECT_EQ(Tensor::max_abs_diff(before, after), 0.f);

  // The evicted handle stays fully usable (eviction only drops the
  // registry's reference).
  EXPECT_EQ(Tensor::max_abs_diff(direct_reference(first, frames), before),
            0.f);
}

TEST(ModelRegistryTest, Int8EvictReloadRoundTripIsBitwiseReproducible) {
  // Int8 models self-calibrate at load time over a FIXED seeded spike
  // stream (ISSUE 10), so the eviction/reload contract above must hold
  // for them too: a cold reload re-runs the identical calibration sweep
  // and re-quantizes to a bit-identical plan.
  ModelRegistry reg(1);
  ModelSpec spec = tiny_spec("qrt");
  spec.compile.precision = infer::Precision::Int8;
  spec.calib_steps = 4;
  ModelHandle first = reg.load(spec);
  EXPECT_EQ(first->plan()->precision, infer::Precision::Int8);
  const auto frames = request_frames(
      Shape{spec.config.in_channels, spec.in_h, spec.in_w}, 4, 13);
  const Tensor before = direct_reference(first, frames);
  ASSERT_NE(before.sum(), 0.0);  // guard: comparison must be non-vacuous

  reg.load(tiny_spec("other"));  // capacity 1: evicts "qrt"
  EXPECT_FALSE(reg.is_resident("qrt"));
  ModelHandle second = reg.load(spec);  // cold reload => fresh calibration
  EXPECT_NE(first.get(), second.get());

  const Tensor after = direct_reference(second, frames);
  EXPECT_EQ(Tensor::max_abs_diff(before, after), 0.f);
}

TEST(ModelRegistryTest, Int8ManifestParsesAndLoads) {
  const std::string path = ::testing::TempDir() + "/int8_model.manifest";
  {
    std::ofstream out(path);
    out << "name quantized\n"
        << "family single_block\n"
        << "width 8\n"
        << "timesteps 4\n"
        << "theta 0.25\n"
        << "warm_bn_steps 4\n"
        << "precision int8\n"
        << "calib_steps 3\n"
        << "batch 2\n";
  }
  const ModelSpec spec = ModelSpec::from_manifest(path);
  EXPECT_EQ(spec.compile.precision, infer::Precision::Int8);
  EXPECT_EQ(spec.calib_steps, 3);

  ModelRegistry reg(2);
  ModelHandle m = reg.load(path);
  EXPECT_EQ(m->plan()->precision, infer::Precision::Int8);
  EXPECT_GT(m->plan()->weight_bytes(), 0);

  {
    std::ofstream out(path);
    out << "name quantized\nprecision int4\n";
  }
  EXPECT_THROW(ModelSpec::from_manifest(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, CheckpointRestoreRoundTrip) {
  // Weights trained elsewhere and saved as SNNSKIP2 load through the
  // registry and change the served outputs vs the seeded init.
  const ModelSpec base = tiny_spec("ckpt-src");
  Network net = build_model(base.family, base.config,
                            default_adjacencies(base.family, base.config));
  {  // perturb + warm so saved weights differ from a fresh build
    Rng rng(123);
    net.reset_state();
    for (int t = 0; t < 4; ++t) {
      net.forward(Tensor::bernoulli(base.input_shape(), rng, 0.3f), true);
    }
    net.reset_state();
  }
  const std::string path = ::testing::TempDir() + "/serve_ckpt.snnskip2";
  ASSERT_TRUE(save_network(path, net));

  ModelRegistry reg(4);
  ModelSpec with_ckpt = tiny_spec("ckpt");
  with_ckpt.checkpoint = path;
  with_ckpt.warm_bn_steps = 0;
  ModelHandle restored = reg.load(with_ckpt);
  ModelHandle seeded = reg.load(tiny_spec("seeded"));
  std::remove(path.c_str());

  const auto frames = request_frames(
      Shape{base.config.in_channels, base.in_h, base.in_w}, 4, 13);
  // Restored-BN stats differ from the fixed warmup => different outputs.
  EXPECT_GT(Tensor::max_abs_diff(direct_reference(restored, frames),
                                 direct_reference(seeded, frames)),
            0.f);

  ModelSpec bad = tiny_spec("bad");
  bad.checkpoint = ::testing::TempDir() + "/does_not_exist.snnskip2";
  EXPECT_THROW(reg.load(bad), std::runtime_error);
}

TEST(ModelRegistryTest, LeasePoolReusesEngines) {
  ModelRegistry reg(4);
  ModelHandle m = reg.load(tiny_spec("pool"));
  {
    LoadedModel::Lease a = m->lease();
    LoadedModel::Lease b = m->lease();
    EXPECT_EQ(m->engines_created(), 2);
  }  // both returned
  {
    LoadedModel::Lease c = m->lease();
    EXPECT_EQ(m->engines_created(), 2);  // reused, not constructed
  }
}

TEST(ModelRegistryTest, ManifestParsing) {
  const std::string path = ::testing::TempDir() + "/model.manifest";
  {
    std::ofstream out(path);
    out << "# demo manifest\n"
        << "name manifested\n"
        << "family single_block\n"
        << "width 8\n"
        << "timesteps 4\n"
        << "neuron plif\n"
        << "theta 0.75\n"
        << "warm_bn_steps 4\n"
        << "batch 3\n"  // accepted from older manifests, then ignored
        << "threshold 0.5\n";
  }
  const ModelSpec spec = ModelSpec::from_manifest(path);
  EXPECT_EQ(spec.name, "manifested");
  EXPECT_EQ(spec.family, "single_block");
  EXPECT_EQ(spec.config.width, 8);
  EXPECT_EQ(spec.config.neuron, NeuronKind::Plif);
  EXPECT_EQ(spec.config.lif.threshold, 0.75f);
  EXPECT_EQ(spec.exec.threshold, 0.5f);

  ModelRegistry reg(2);
  ModelHandle m = reg.load(path);  // load(path) == load(from_manifest)
  EXPECT_EQ(m->plan()->input_shape, (Shape{1, 2, 8, 8}));
  EXPECT_EQ(m->lease()->options().threshold, 0.5f);

  {
    std::ofstream out(path);
    out << "width notanumber\n";
  }
  EXPECT_THROW(ModelSpec::from_manifest(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "no_such_key 1\n";
  }
  EXPECT_THROW(ModelSpec::from_manifest(path), std::runtime_error);
  {
    // The engine has no dispatch switch besides the threshold any more.
    std::ofstream out(path);
    out << "packed false\n";
  }
  EXPECT_THROW(ModelSpec::from_manifest(path), std::runtime_error);
  // The dispatch threshold is a density in [0, 1]; a legacy batch is a
  // whole number >= 1.
  for (const char* bad : {"threshold nan", "threshold 7", "batch 0"}) {
    {
      std::ofstream out(path);
      out << bad << "\n";
    }
    try {
      ModelSpec::from_manifest(path);
      ADD_FAILURE() << "'" << bad << "' loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out-of-range value"),
                std::string::npos)
          << e.what();
    }
  }
  // A number must be the whole value: no trailing junk, and no negative
  // seed wrapping to 2^64 - 1.
  for (const char* bad :
       {"width 8abc", "timesteps 4x", "threshold 0.3abc", "seed -1"}) {
    {
      std::ofstream out(path);
      out << bad << "\n";
    }
    try {
      ModelSpec::from_manifest(path);
      ADD_FAILURE() << "'" << bad << "' loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unparsable value"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, HardLoadFailuresAreRecoverablePerModel) {
  // Every way a model blob can be bad on disk must surface as a per-model
  // try_load failure (nullptr + reason), never an uncaught throw: the
  // daemon skips the model and serves the rest.
  ModelRegistry reg(4);
  const std::string dir = ::testing::TempDir();

  // Duplicate key: the manifest was hand-edited into ambiguity.
  const std::string dup = dir + "/dup.manifest";
  {
    std::ofstream out(dup);
    out << "name dup\nwidth 8\nwidth 16\n";
  }
  std::string err;
  EXPECT_EQ(reg.try_load(dup, &err), nullptr);
  EXPECT_NE(err.find("duplicate key 'width'"), std::string::npos) << err;

  // Missing value for a key.
  const std::string noval = dir + "/noval.manifest";
  {
    std::ofstream out(noval);
    out << "name noval\nwidth\n";
  }
  EXPECT_EQ(reg.try_load(noval, &err), nullptr);
  EXPECT_NE(err.find("missing value"), std::string::npos) << err;

  // CRC-failing checkpoint: save a real one, then corrupt a byte in the
  // middle — load_network restores whole-or-nothing, so the registry must
  // refuse to serve the seeded init in its place.
  const ModelSpec base = tiny_spec("crc");
  Network net = build_model(base.family, base.config,
                            default_adjacencies(base.family, base.config));
  const std::string ckpt = dir + "/corrupt.snnskip2";
  ASSERT_TRUE(save_network(ckpt, net));
  {
    std::fstream f(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(128);
    const char x = 'X';
    f.write(&x, 1);
  }
  ModelSpec bad = tiny_spec("crc");
  bad.checkpoint = ckpt;
  bad.warm_bn_steps = 0;
  EXPECT_EQ(reg.try_load(bad, &err), nullptr);
  EXPECT_NE(err.find("checkpoint missing or corrupt"), std::string::npos)
      << err;
  EXPECT_FALSE(reg.is_resident("crc"));

  // Un-corrupt path still loads: the registry itself is undamaged.
  ASSERT_TRUE(save_network(ckpt, net));
  EXPECT_NE(reg.try_load(bad, &err), nullptr);

  // Degenerate geometry: a zero or negative size or step count is refused
  // before anything is built (timesteps 0 would crash the BN warm-up,
  // zero sizes would load a degenerate model).
  const std::vector<std::pair<std::string, void (*)(ModelSpec&)>> geometry = {
      {"width", [](ModelSpec& s) { s.config.width = 0; }},
      {"width", [](ModelSpec& s) { s.config.width = -1; }},
      {"in_channels", [](ModelSpec& s) { s.config.in_channels = 0; }},
      {"num_classes", [](ModelSpec& s) { s.config.num_classes = 0; }},
      {"timesteps", [](ModelSpec& s) { s.config.max_timesteps = 0; }},
      {"timesteps", [](ModelSpec& s) { s.config.max_timesteps = -3; }},
      {"in_h", [](ModelSpec& s) { s.in_h = 0; }},
      {"in_w", [](ModelSpec& s) { s.in_w = -8; }},
      {"warm_bn_steps", [](ModelSpec& s) { s.warm_bn_steps = -1; }},
      {"calib_steps", [](ModelSpec& s) { s.calib_steps = -1; }},
  };
  for (const auto& [field, mutate] : geometry) {
    ModelSpec degenerate = tiny_spec("degenerate");
    mutate(degenerate);
    err.clear();
    EXPECT_EQ(reg.try_load(degenerate, &err), nullptr) << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  }
  EXPECT_FALSE(reg.is_resident("degenerate"));

  // The daemon path: a manifest naming timesteps 0 is skipped, not fatal.
  const std::string zero_t = dir + "/zero_t.manifest";
  {
    std::ofstream out(zero_t);
    out << "name zero_t\nfamily single_block\ntimesteps 0\n"
        << "warm_bn_steps 4\n";
  }
  EXPECT_EQ(reg.try_load(zero_t, &err), nullptr);
  EXPECT_NE(err.find("timesteps"), std::string::npos) << err;

  std::remove(ckpt.c_str());
  std::remove(dup.c_str());
  std::remove(noval.c_str());
  std::remove(zero_t.c_str());
}

// --- Server -----------------------------------------------------------------

ServeOptions fast_opts() {
  ServeOptions opts;
  opts.queue_capacity = 64;
  opts.workers = 2;
  return opts;
}

TEST(ServerTest, ServedResultsMatchDirectEngine) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("m");
  server.add_model(spec);
  ModelHandle direct = reg.load(spec);  // cache hit: same model

  // Sequence lengths vary per request: each answer accumulates exactly
  // its own T steps, bitwise equal to a direct engine run (same batch-1
  // plan, same accumulation order).
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto frames = request_frames(
        frame, 2 + static_cast<std::int64_t>(seed % 3), 100 + seed);
    const Tensor served = server.infer("m", frames);
    const Tensor ref = direct_reference(direct, frames);
    ASSERT_EQ(served.numel(), ref.numel());
    EXPECT_EQ(Tensor::max_abs_diff(served, ref), 0.f) << "seed " << seed;
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.batches, 6);  // one engine run per request
  EXPECT_EQ(stats.failed, 0);
}

TEST(ServerTest, InvalidSubmitsThrow) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  server.add_model(tiny_spec("m"));
  const Shape frame{2, 8, 8};
  EXPECT_THROW((void)server.submit("nope", request_frames(frame, 2, 51)),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit("m", {}), std::invalid_argument);
  EXPECT_THROW((void)server.submit(
                   "m", request_frames(Shape{2, 4, 4}, 2, 52)),
               std::invalid_argument);
}

TEST(ServerTest, QueueFullFaultSiteForcesRejection) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  server.add_model(tiny_spec("m"));
  const Shape frame{2, 8, 8};

  fault::arm("serve.queue_full", {.fire_at = 0, .count = 1});
  Server::Ticket rejected = server.submit("m", request_frames(frame, 2, 61));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_GT(rejected.retry_after_us, 0);
  EXPECT_FALSE(rejected.result.valid());
  EXPECT_GE(fault::hits("serve.queue_full"), 1);
  fault::reset();

  // Next submit (site disarmed) is admitted and completes.
  Server::Ticket ok = server.submit("m", request_frames(frame, 2, 62));
  ASSERT_TRUE(ok.accepted);
  (void)ok.result.get();
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServerTest, DrainCompletesPendingAndStopsAdmission) {
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 1;  // requests queue behind one worker: drain must wait
  Server server(reg, opts);
  const ModelSpec spec = tiny_spec("d");
  server.add_model(spec);

  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  std::vector<Server::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(server.submit("d", request_frames(frame, 2, 70 + i)));
    ASSERT_TRUE(tickets.back().accepted);
  }
  server.drain();
  EXPECT_TRUE(server.draining());
  for (auto& t : tickets) {
    EXPECT_NO_THROW((void)t.result.get());  // all fulfilled, none dropped
  }
  EXPECT_EQ(server.stats().completed, 3);

  Server::Ticket late = server.submit("d", request_frames(frame, 2, 79));
  EXPECT_FALSE(late.accepted);  // admission closed
}

TEST(ServerTest, DrainUnderConcurrentSubmittersIsCleanAndBounded) {
  // drain() racing live submitters: every ticket handed out before the
  // admission gate closed must settle (value or drain-timeout error), and
  // submits after it must be rejected, never lost — the TSan job runs
  // this to prove the drain_cv_ signaling is race-free.
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 2;
  opts.drain_timeout_ms = 10'000;  // generous: this test wants clean
  Server server(reg, opts);
  const ModelSpec spec = tiny_spec("dc");
  server.add_model(spec);
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};

  std::atomic<bool> stop{false};
  std::atomic<int> settled{0}, rejected{0};
  std::vector<std::thread> submitters;
  for (int c = 0; c < 4; ++c) {
    submitters.emplace_back([&, c] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Server::Ticket t = server.submit(
            "dc", request_frames(frame, 2,
                                 static_cast<std::uint64_t>(c) * 1000 + i++));
        if (!t.accepted) {
          ++rejected;
          continue;
        }
        try {
          (void)t.result.get();
        } catch (const std::runtime_error&) {
          // drain-timeout failure is a legitimate settlement
        }
        ++settled;
      }
    });
  }
  // Let the submitters build up real traffic, then drain under them.
  while (settled.load() < 16) std::this_thread::yield();
  EXPECT_TRUE(server.drain());
  stop.store(true);
  for (auto& t : submitters) t.join();
  EXPECT_GT(settled.load(), 0);
  // Post-drain submits are rejected, not hung.
  Server::Ticket late = server.submit("dc", request_frames(frame, 2, 9999));
  EXPECT_FALSE(late.accepted);
}

TEST(ServerTest, ConcurrentClientsAcrossModelsMatchReferences) {
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 2;
  Server server(reg, opts);
  const ModelSpec spec_a = tiny_spec("a");
  ModelSpec spec_b = tiny_spec("b");
  spec_b.config.lif.threshold = 2.f;  // distinct model, distinct outputs
  server.add_model(spec_a);
  server.add_model(spec_b);
  ModelHandle da = reg.load(spec_a);
  ModelHandle db = reg.load(spec_b);

  const Shape frame{2, 8, 8};
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const bool use_a = (c + i) % 2 == 0;
        const auto frames =
            request_frames(frame, 4, static_cast<std::uint64_t>(c * 100 + i));
        const Tensor served = server.infer(use_a ? "a" : "b", frames);
        const Tensor ref = direct_reference(use_a ? da : db, frames);
        if (Tensor::max_abs_diff(served, ref) != 0.f) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.batches, kClients * kPerClient);
}

// --- telemetry keying -------------------------------------------------------

TEST(ServeTelemetryTest, EngineCountersAreKeyedPerModel) {
  // Two engines serving differently named plans must not bleed into each
  // other's infer.* counters; aggregate keys still accumulate both.
  const bool was_enabled = Telemetry::enabled();
  Telemetry::set_enabled(true);
  Telemetry::reset();

  ModelRegistry reg(4);
  ModelHandle a = reg.load(tiny_spec("alpha"));
  ModelHandle b = reg.load(tiny_spec("beta"));
  const Shape frame{2, 8, 8};
  (void)direct_reference(a, request_frames(frame, 3, 7));
  (void)direct_reference(b, request_frames(frame, 2, 8));

  const auto counters = Telemetry::counters();
  ASSERT_TRUE(counters.count("infer.steps.alpha"));
  ASSERT_TRUE(counters.count("infer.steps.beta"));
  EXPECT_EQ(counters.at("infer.steps.alpha"), 3.0);
  EXPECT_EQ(counters.at("infer.steps.beta"), 2.0);
  ASSERT_TRUE(counters.count("infer.steps"));
  EXPECT_EQ(counters.at("infer.steps"), 5.0);

  Telemetry::reset();
  Telemetry::set_enabled(was_enabled);
}

// --- wire protocol ----------------------------------------------------------

namespace {

// Raw little-endian payload builder for crafting malformed requests the
// public encoder refuses to produce.
struct RawPayload {
  std::vector<std::uint8_t> bytes;
  template <typename T>
  void put(T v) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), b, b + sizeof(T));
  }
};

}  // namespace

TEST(WireProtocolTest, RequestRoundTripsThroughChunkedAssembler) {
  serve::wire::RequestMsg req;
  req.id = 42;
  req.deadline_ns = 123456789;
  req.model = "alpha";
  Rng rng(11);
  for (int t = 0; t < 3; ++t) {
    req.frames.push_back(Tensor::bernoulli(Shape{2, 4, 4}, rng, 0.4f));
  }
  const std::vector<std::uint8_t> frame = serve::wire::encode_request(req);

  // Feed the frame in deliberately awkward chunk sizes.
  serve::wire::FrameAssembler in;
  for (std::size_t off = 0; off < frame.size();) {
    const std::size_t n = std::min<std::size_t>(7, frame.size() - off);
    in.append(frame.data() + off, n);
    off += n;
  }
  auto f = in.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, serve::wire::FrameType::Request);
  EXPECT_TRUE(f->crc_ok);

  const serve::wire::RequestMsg back =
      serve::wire::decode_request(f->payload.data(), f->payload.size());
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.deadline_ns, req.deadline_ns);
  EXPECT_EQ(back.model, req.model);
  ASSERT_EQ(back.frames.size(), req.frames.size());
  for (std::size_t t = 0; t < req.frames.size(); ++t) {
    ASSERT_EQ(back.frames[t].shape(), req.frames[t].shape());
    for (std::int64_t i = 0; i < req.frames[t].numel(); ++i) {
      EXPECT_EQ(back.frames[t].data()[i], req.frames[t].data()[i]);
    }
  }
}

TEST(WireProtocolTest, OverflowingGeometryIsRejectedBeforeAllocation) {
  // t * c*h*w * sizeof(float) == 2^14 * 2^48 * 2^2 == 2^64 wraps to
  // exactly 0 in 64-bit arithmetic: every field is individually within
  // the geometry caps, so only an overflow-proof payload-size check
  // stands between this payload and a 2^50-byte allocation.
  RawPayload p;
  p.put<std::uint64_t>(1);             // id
  p.put<std::int64_t>(0);              // deadline
  p.put<std::uint16_t>(1);             // name_len
  p.bytes.push_back('m');              // name
  p.put<std::uint32_t>(16384);         // t
  p.put<std::uint32_t>(65536);         // c
  p.put<std::uint32_t>(65536);         // h
  p.put<std::uint32_t>(65536);         // w
  p.put<std::uint32_t>(0);             // a token amount of "tensor data"
  EXPECT_THROW(serve::wire::decode_request(p.bytes.data(), p.bytes.size()),
               serve::wire::ProtocolError);
}

TEST(WireProtocolTest, HeaderCorruptionIsDetectedDeterministically) {
  serve::wire::RequestMsg req;
  req.id = 7;
  req.model = "m";
  req.frames.push_back(Tensor(Shape{1, 2, 2}));
  const std::vector<std::uint8_t> frame = serve::wire::encode_request(req);

  // A flipped TYPE byte must not silently reroute the frame (a Request
  // read as Goaway would strand the client until its receive timeout).
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] ^= 0x02;  // Request (1) -> Goaway (3): valid range, wrong frame
    serve::wire::FrameAssembler in;
    in.append(bad.data(), bad.size());
    EXPECT_THROW(in.next(), serve::wire::ProtocolError);
  }
  // A flipped LENGTH byte must not desync the stream (or stall it
  // waiting for bytes that will never arrive).
  {
    std::vector<std::uint8_t> bad = frame;
    bad[8] ^= 0x01;
    serve::wire::FrameAssembler in;
    in.append(bad.data(), bad.size());
    EXPECT_THROW(in.next(), serve::wire::ProtocolError);
  }
  // A flipped PAYLOAD byte stays a torn frame: delimitation holds, the
  // frame pops with crc_ok == false, and the stream stays usable.
  {
    std::vector<std::uint8_t> bad = frame;
    bad[serve::wire::kHeaderBytes + 3] ^= 0x01;
    serve::wire::FrameAssembler in;
    in.append(bad.data(), bad.size());
    auto f = in.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_FALSE(f->crc_ok);
    in.append(frame.data(), frame.size());  // next frame parses cleanly
    auto g = in.next();
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->crc_ok);
  }
}

}  // namespace
}  // namespace snnskip
