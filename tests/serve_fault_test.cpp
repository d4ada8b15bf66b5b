// Chaos drills for the fault-tolerant serve path (ISSUE 8).
//
// Every deterministic fault site wired into the transport, the server
// core and the model registry gets a drill that arms it, drives real
// traffic through the full loopback stack (serve::Client -> TCP ->
// SocketServer -> Server -> Engine), and asserts the documented recovery:
//
//   serve.frame_torn        -> CrcError response, connection survives
//   serve.client_disconnect -> response dropped, lease still freed
//   serve.accept_fail       -> listener keeps accepting
//   serve.read_stall        -> io_timeout_ms reaps the connection
//   serve.engine_nan        -> request fails, model quarantined + reloaded
//   serve.manifest_corrupt  -> model skipped, registry undamaged
//
// plus deadline shedding (in-process and over the wire), quarantine
// reload failure (model unregistered, daemon lives), bounded drain, and
// goaway-on-shutdown. The closing soak runs 4 clients x 2 models over
// loopback with several sites armed at once; every final result must
// still match a direct-engine reference bitwise. The whole suite runs
// under TSan in CI (scripts/run_sanitizers.sh --tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/inject.h"
#include "infer/engine.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/options.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/timer.h"

namespace snnskip {
namespace {

using serve::Client;
using serve::ClientOptions;
using serve::LoadedModel;
using serve::ModelHandle;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::ServeOptions;
using serve::Server;
using serve::SocketServer;

ModelSpec tiny_spec(const std::string& name) {
  ModelSpec spec;
  spec.name = name;
  spec.family = "single_block";
  spec.config.width = 8;
  spec.config.in_channels = 2;
  spec.config.num_classes = 10;
  spec.config.max_timesteps = 4;
  spec.config.seed = 7;
  spec.config.lif.threshold = 0.25f;  // keep the tiny net firing
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

ServeOptions fast_opts() {
  ServeOptions opts;
  opts.queue_capacity = 64;
  opts.workers = 2;
  return opts;
}

ClientOptions client_opts(int port) {
  ClientOptions o;
  o.port = port;
  o.io_timeout_ms = 2000;
  o.backoff_base_us = 100;
  o.backoff_cap_us = 5000;
  return o;
}

/// Spin until `pred` holds or ~5s elapse (transport counters are bumped
/// asynchronously to the client-visible completion).
template <typename Pred>
bool eventually(Pred pred) {
  Timer t;
  while (!pred()) {
    if (t.elapsed_ms() > 5000.0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

// --- deadline propagation ---------------------------------------------------

TEST_F(ServeFaultTest, ExpiredDeadlineIsShedBeforeBatchAssembly) {
  // A request popped past its deadline never reaches an engine.
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("dl");
  server.add_model(spec);
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};

  serve::SubmitOptions sub;
  sub.deadline_ns = serve::wire::mono_now_ns() - 1;  // already expired
  Server::Ticket t = server.submit("dl", request_frames(frame, 4, 1), sub);
  ASSERT_TRUE(t.accepted);  // admission does not shed; the worker does
  try {
    (void)t.result.get();
    FAIL() << "expired request returned a value";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline expired"),
              std::string::npos)
        << e.what();
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 0);  // shed != failed: no engine time was spent

  // A request with a generous deadline on the same server completes.
  sub.deadline_ns = serve::wire::mono_now_ns() + 10'000'000'000ll;
  Server::Ticket ok = server.submit("dl", request_frames(frame, 4, 2), sub);
  ASSERT_TRUE(ok.accepted);
  EXPECT_NO_THROW((void)ok.result.get());
}

TEST_F(ServeFaultTest, DeadlineExpiresInQueueOverTheWire) {
  // The deadline crosses the wire as an absolute monotonic timestamp; a
  // request that waits out its budget in the server queue — here behind
  // the one worker, held busy by a completion callback that blocks until
  // released — comes back Expired, which the client treats as terminal
  // (no pointless retries).
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 1;
  Server server(reg, opts);
  const ModelSpec spec = tiny_spec("wd");
  server.add_model(spec);
  SocketServer sock(server, opts);
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> busy{false};
  server.submit_async("wd", request_frames(frame, 4, 2), {},
                      [&busy, released](serve::Outcome) {
                        busy.store(true);
                        released.wait();
                      });
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    release.set_value();
  });
  EXPECT_TRUE(eventually([&] { return busy.load(); }));

  Client client(client_opts(sock.port()));
  const std::int64_t deadline =
      serve::wire::mono_now_ns() + 50'000'000;  // +50ms
  const Client::Result res =
      client.infer("wd", request_frames(frame, 4, 3), deadline);
  releaser.join();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status, serve::wire::Status::Expired);
  EXPECT_EQ(res.retries, 0);  // terminal on the first answer
  EXPECT_EQ(server.stats().expired, 1);
  EXPECT_EQ(server.stats().completed, 1);  // only the held request ran
}

// --- model quarantine -------------------------------------------------------

TEST_F(ServeFaultTest, EngineNanQuarantinesAndReloadsModel) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("q");
  server.add_model(spec);
  ModelHandle original = reg.load(spec);  // cache hit: pre-quarantine copy
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  const auto frames = request_frames(frame, 4, 5);
  const Tensor ref = direct_reference(original, frames);
  ASSERT_EQ(reg.cold_loads(), 1);

  fault::arm("serve.engine_nan", {.fire_at = 0, .count = 1});
  std::mutex mu;
  bool settled = false;
  serve::Outcome poisoned;
  server.submit_async("q", frames, {}, [&](serve::Outcome o) {
    std::lock_guard<std::mutex> lock(mu);
    poisoned = std::move(o);
    settled = true;
  });
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(mu);
    return settled;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(poisoned.status, serve::RequestStatus::Failed);
    EXPECT_NE(poisoned.error.find("quarantined"), std::string::npos)
        << poisoned.error;
  }

  // Quarantine completed BEFORE the failure was reported: the reload is
  // already visible, so an immediate retry hits the fresh copy and — the
  // fixed warmup stream being bit-reproducible — returns the exact
  // pre-quarantine answer.
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(reg.cold_loads(), 2);  // evict + cold reload
  const Tensor retried = server.infer("q", frames);
  EXPECT_EQ(Tensor::max_abs_diff(retried, ref), 0.f);
}

TEST_F(ServeFaultTest, QuarantineReloadFailureUnregistersModel) {
  // The checkpoint goes bad on disk AFTER the model was serving: the
  // quarantine reload fails, the model is unregistered, and the daemon —
  // not just the test — stays alive for its other models.
  const ModelSpec base = tiny_spec("gone");
  Network net = build_model(base.family, base.config,
                            default_adjacencies(base.family, base.config));
  const std::string ckpt = ::testing::TempDir() + "/quarantine.snnskip2";
  ASSERT_TRUE(save_network(ckpt, net));

  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  ModelSpec spec = base;
  spec.checkpoint = ckpt;
  spec.warm_bn_steps = 0;
  server.add_model(spec);
  server.add_model(tiny_spec("healthy"));
  std::remove(ckpt.c_str());  // reload will find nothing to restore

  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  fault::arm("serve.engine_nan", {.fire_at = 0, .count = 1});
  std::mutex mu;
  bool settled = false;
  serve::Outcome out;
  server.submit_async("gone", request_frames(frame, 4, 7), {},
                      [&](serve::Outcome o) {
                        std::lock_guard<std::mutex> lock(mu);
                        out = std::move(o);
                        settled = true;
                      });
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(mu);
    return settled;
  }));
  EXPECT_EQ(out.status, serve::RequestStatus::Failed);

  EXPECT_EQ(server.stats().quarantined, 1);
  // Unregistered: submits now report the model unknown...
  EXPECT_THROW((void)server.submit("gone", request_frames(frame, 4, 8)),
               std::invalid_argument);
  // ...while the healthy model keeps serving.
  EXPECT_NO_THROW((void)server.infer("healthy", request_frames(frame, 4, 9)));
}

TEST_F(ServeFaultTest, ManifestCorruptFaultSkipsModelRecoverably) {
  const std::string path = ::testing::TempDir() + "/chaos.manifest";
  {
    std::ofstream out(path);
    out << "name chaos\nfamily single_block\nwidth 8\n"
        << "timesteps 4\nwarm_bn_steps 4\nbatch 2\n";
  }
  ModelRegistry reg(4);
  fault::arm("serve.manifest_corrupt", {.fire_at = 0, .count = 1});
  std::string err;
  EXPECT_EQ(reg.try_load(path, &err), nullptr);
  EXPECT_NE(err.find("cannot read manifest"), std::string::npos) << err;
  EXPECT_EQ(reg.resident(), 0u);
  // The registry is undamaged: the same manifest loads once the fault
  // clears (a transient I/O error, not a poisoned cache).
  EXPECT_NE(reg.try_load(path, &err), nullptr);
  std::remove(path.c_str());
}

// --- transport chaos --------------------------------------------------------

TEST_F(ServeFaultTest, TornRequestFrameKeepsConnectionAlive) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("t");
  server.add_model(spec);
  ModelHandle direct = reg.load(spec);
  SocketServer sock(server, fast_opts());

  fault::arm("serve.frame_torn", {.fire_at = 0, .count = 1});
  Client client(client_opts(sock.port()));
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  const auto frames = request_frames(frame, 4, 11);
  const Client::Result res = client.infer("t", frames);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.retries, 1);  // exactly one CrcError round-trip
  EXPECT_EQ(Tensor::max_abs_diff(res.value, direct_reference(direct, frames)),
            0.f);
  const SocketServer::TransportStats ts = sock.stats();
  EXPECT_EQ(ts.frames_torn, 1);
  EXPECT_EQ(ts.connections, 1);  // the resend reused the same connection
}

TEST_F(ServeFaultTest, ClientDisconnectDropsResponseButFreesLease) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("cd");
  server.add_model(spec);
  SocketServer sock(server, fast_opts());

  fault::arm("serve.client_disconnect", {.fire_at = 0, .count = 1});
  Client client(client_opts(sock.port()));
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  const Client::Result res = client.infer("cd", request_frames(frame, 4, 13));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.retries, 1);

  // The disconnected request still EXECUTED (the server never cancels a
  // submitted request) and its response was dropped, not leaked; the lease
  // went back to the pool, which is why the retry could be served at all.
  EXPECT_TRUE(eventually([&] { return sock.stats().dropped_responses >= 1; }));
  EXPECT_TRUE(eventually([&] { return server.stats().completed >= 2; }));
  EXPECT_EQ(server.stats().failed, 0);
}

TEST_F(ServeFaultTest, AcceptFailureDoesNotKillListener) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("af");
  server.add_model(spec);
  SocketServer sock(server, fast_opts());

  fault::arm("serve.accept_fail", {.fire_at = 0, .count = 1});
  Client client(client_opts(sock.port()));
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  // First connection is accepted-then-dropped by the fault; the client's
  // retry reconnects against the still-live listener.
  const Client::Result res = client.infer("af", request_frames(frame, 4, 17));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.retries, 1);
  const SocketServer::TransportStats ts = sock.stats();
  EXPECT_EQ(ts.accept_failures, 1);
  EXPECT_EQ(ts.connections, 1);
}

TEST_F(ServeFaultTest, ReadStallIsReapedByIoTimeout) {
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.io_timeout_ms = 100;  // reap the wedged connection quickly
  Server server(reg, opts);
  const ModelSpec spec = tiny_spec("rs");
  server.add_model(spec);
  SocketServer sock(server, opts);

  fault::arm("serve.read_stall", {.fire_at = 0, .count = 1});
  ClientOptions copts = client_opts(sock.port());
  copts.io_timeout_ms = 400;  // client gives up after the server reaps
  Client client(std::move(copts));
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  const Client::Result res = client.infer("rs", request_frames(frame, 4, 19));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.retries, 1);
  EXPECT_TRUE(eventually([&] { return sock.stats().timeouts >= 1; }));
}

// --- graceful degradation ---------------------------------------------------

TEST_F(ServeFaultTest, GoawayOnShutdownStopsClientCleanly) {
  ModelRegistry reg(4);
  Server server(reg, fast_opts());
  const ModelSpec spec = tiny_spec("ga");
  server.add_model(spec);
  SocketServer sock(server, fast_opts());

  Client client(client_opts(sock.port()));
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};
  ASSERT_TRUE(client.infer("ga", request_frames(frame, 4, 23)).ok);

  sock.shutdown();  // goaway every connection, then close once flushed
  const Client::Result res = client.infer("ga", request_frames(frame, 4, 29));
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(client.goaway() ||
              res.status == serve::wire::Status::Rejected)
      << serve::wire::status_name(res.status) << ": " << res.error;
}

TEST_F(ServeFaultTest, DrainTimeoutIsBoundedAndSettlesEveryTicket) {
  // A drain that cannot finish in time must fail the still-queued
  // requests and return false — never hang shutdown. 128 16-step
  // requests on one worker cannot clear in 5ms, so the timeout path is
  // guaranteed.
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 1;
  opts.queue_capacity = 256;
  opts.drain_timeout_ms = 5;
  Server server(reg, opts);
  const ModelSpec spec = tiny_spec("dt");
  server.add_model(spec);
  const Shape frame{spec.config.in_channels, spec.in_h, spec.in_w};

  // Callback completions (the transport-facing API): every outcome is
  // delivered exactly once, and the settled state is read back under a
  // plain mutex rather than rethrown across threads.
  std::mutex mu;
  int ok = 0, drained_away = 0, other = 0;
  std::string first_unexpected;
  for (int i = 0; i < 128; ++i) {
    server.submit_async(
        "dt", request_frames(frame, 16, 100 + i), {},
        [&](serve::Outcome o) {
          std::lock_guard<std::mutex> lock(mu);
          if (o.status == serve::RequestStatus::Ok) {
            ++ok;
          } else if (o.error.find("drain timeout") != std::string::npos) {
            ++drained_away;
          } else {
            if (first_unexpected.empty()) first_unexpected = o.error;
            ++other;
          }
        });
  }
  Timer t;
  const bool clean = server.drain();
  EXPECT_FALSE(clean);
  EXPECT_LT(t.elapsed_ms(), 5000.0);  // bounded, nowhere near unbounded

  // The request running at the timeout settles from the worker thread
  // after drain() returns; wait for the last callback before asserting
  // the tallies.
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(mu);
    return ok + drained_away + other == 128;
  }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(other, 0) << first_unexpected;
  EXPECT_EQ(ok + drained_away, 128);  // every request settled: no leaks
  EXPECT_GT(drained_away, 0);
}

// --- the soak ---------------------------------------------------------------

TEST_F(ServeFaultTest, ChaosSoakOverLoopbackStaysCorrect) {
  // 4 clients x 2 models over real loopback TCP with several fault sites
  // armed at once. The invariant is absolute: after retries, every result
  // a client accepts must match the direct-engine reference bitwise —
  // chaos may cost latency, never correctness.
  ModelRegistry reg(4);
  ServeOptions opts = fast_opts();
  opts.workers = 2;
  opts.io_timeout_ms = 300;
  Server server(reg, opts);
  const ModelSpec spec_a = tiny_spec("sa");
  ModelSpec spec_b = tiny_spec("sb");
  spec_b.config.lif.threshold = 2.f;
  server.add_model(spec_a);
  server.add_model(spec_b);
  ModelHandle da = reg.load(spec_a);
  ModelHandle db = reg.load(spec_b);
  SocketServer sock(server, opts);

  fault::arm("serve.frame_torn", {.fire_at = 5, .count = 2});
  fault::arm("serve.client_disconnect", {.fire_at = 2, .count = 1});
  fault::arm("serve.accept_fail", {.fire_at = 1, .count = 1});
  fault::arm("serve.read_stall", {.fire_at = 20, .count = 1});
  fault::arm("serve.engine_nan", {.fire_at = 6, .count = 1});

  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  const Shape frame{2, 8, 8};
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts = client_opts(sock.port());
      copts.io_timeout_ms = 2000;
      copts.max_retries = 10;
      copts.jitter_seed = 1000 + static_cast<std::uint64_t>(c);
      Client client(std::move(copts));
      for (int i = 0; i < kPerClient; ++i) {
        const bool use_a = (c + i) % 2 == 0;
        const auto frames = request_frames(
            frame, 4, static_cast<std::uint64_t>(c) * 100 + i);
        const Client::Result res =
            client.infer(use_a ? "sa" : "sb", frames);
        if (!res.ok) {
          std::fprintf(stderr, "soak client %d req %d: %s (%s)\n", c, i,
                       res.error.c_str(),
                       serve::wire::status_name(res.status));
          ++failures;
          continue;
        }
        const Tensor ref = direct_reference(use_a ? da : db, frames);
        if (Tensor::max_abs_diff(res.value, ref) != 0.f) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // The chaos actually happened (the drill is vacuous otherwise).
  EXPECT_GE(fault::hits("serve.frame_torn"), 1);
  EXPECT_GE(fault::hits("serve.accept_fail"), 1);
  EXPECT_GE(fault::hits("serve.engine_nan"), 1);
  fault::reset();  // stop injecting before teardown traffic

  sock.shutdown();
  EXPECT_TRUE(server.drain());  // clean: nothing wedged, nothing leaked
  const serve::ServeStats stats = server.stats();
  EXPECT_GE(stats.completed, kClients * kPerClient);  // retries add more
  EXPECT_GE(stats.quarantined, 1);
}

}  // namespace
}  // namespace snnskip
