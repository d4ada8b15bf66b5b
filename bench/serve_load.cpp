// Closed-loop load generator for the snnskip-serve core (ISSUE 7).
//
// Sweeps model count x client concurrency against a Server with the
// default ServeOptions (only the worker count comes from --workers) and
// compares sustained throughput to a serial request-at-a-time baseline:
// one thread driving each model's compiled Engine directly, one sequence
// after another — the pre-serve deployment model. The server's edge is
// running requests concurrently on its worker pool.
//
// Every served response is cross-checked against a precomputed direct
// Engine reference for the same request, bitwise: the server runs the
// same batch-1 plan and accumulates the steps in the same order, so any
// difference fails the binary. The smoke variant (--smoke 1) runs in
// ctest, so the full submit -> queue -> lease -> execute -> future path
// is exercised under the sanitizer jobs on every tier-1 run.
//
// --transport socket (ISSUE 8) routes every request over the loopback TCP
// transport instead of in-process submit(): each client thread owns a
// serve::Client speaking the CRC-framed wire protocol against a
// SocketServer on an ephemeral port, with the full retry/backoff policy
// live. The same bitwise cross-check applies to every over-the-wire
// result, so encode -> frame -> decode -> execute -> encode -> decode is
// proven bit-faithful under load, not just in unit tests.
//
// Emitted rows (BENCH_serve.json) are keyed on (models, clients) with
// metric throughput_vs_serial; `workers` is the gate's threads_field so
// smaller machines skip rows they cannot reproduce. Socket-mode rows only
// appear when --transport socket is passed (separate --out), so the
// default bench output gates unchanged.
//
// Usage: serve_load [--smoke 1] [--out BENCH_serve.json] [--min-ms 400]
//                   [--workers N] [--transport inproc|socket]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "infer/engine.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/options.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace snnskip {
namespace {

using serve::LoadedModel;
using serve::ModelHandle;
using serve::ModelRegistry;
using serve::ModelSpec;
using serve::ServeOptions;
using serve::Server;

constexpr std::int64_t kTimesteps = 6;
constexpr std::size_t kRequestsPerModel = 16;

struct SweepPoint {
  int models;
  int clients;
};

ModelSpec make_spec(int idx) {
  ModelSpec spec;
  spec.name = "m" + std::to_string(idx);
  spec.config.width = 8;
  spec.config.in_channels = 2;
  spec.config.max_timesteps = kTimesteps;
  spec.config.seed = 7;
  spec.config.lif.threshold = idx % 2 == 0 ? 1.0f : 2.0f;
  spec.warm_bn_steps = kTimesteps;
  spec.in_h = 12;
  spec.in_w = 12;
  return spec;
}

struct RequestSet {
  std::string model;
  std::vector<std::vector<Tensor>> frames;  // per request: T x (C,H,W)
  std::vector<Tensor> reference;            // rate-accumulated head output
};

// Precompute requests + references with a directly leased engine: the
// request-at-a-time answer the server must reproduce bitwise.
RequestSet build_requests(const ModelHandle& model, int model_idx) {
  RequestSet rs;
  rs.model = model->spec().name;
  const infer::Plan& plan = *model->plan();
  const Shape frame{plan.input_shape[1], plan.input_shape[2],
                    plan.input_shape[3]};
  const std::int64_t classes = plan.output_shape.numel();
  Rng rng(500 + static_cast<std::uint64_t>(model_idx));
  LoadedModel::Lease lease = model->lease();
  Tensor out;
  for (std::size_t r = 0; r < kRequestsPerModel; ++r) {
    std::vector<Tensor> frames;
    for (std::int64_t t = 0; t < kTimesteps; ++t) {
      frames.push_back(Tensor::bernoulli(frame, rng, 0.4f));
    }
    Tensor ref(Shape{classes});
    ref.fill(0.f);
    lease->reset();
    for (const Tensor& x : frames) {
      lease->step(x.reshape(plan.input_shape), &out);
      for (std::int64_t c = 0; c < classes; ++c) {
        ref.data()[c] += out.data()[c];
      }
    }
    rs.frames.push_back(std::move(frames));
    rs.reference.push_back(std::move(ref));
  }
  return rs;
}

// Serial baseline: one thread, one engine per model, requests executed
// to completion one at a time round-robin across models.
double serial_throughput(const std::vector<ModelHandle>& models,
                         const std::vector<RequestSet>& sets, double min_ms) {
  std::vector<LoadedModel::Lease> leases;
  leases.reserve(models.size());
  for (const ModelHandle& m : models) leases.push_back(m->lease());
  Tensor out;
  std::int64_t done = 0;
  Timer t;
  do {
    const std::size_t m = static_cast<std::size_t>(done) % sets.size();
    const auto& frames =
        sets[m].frames[static_cast<std::size_t>(done) % kRequestsPerModel];
    const Shape& in = models[m]->plan()->input_shape;
    leases[m]->reset();
    for (const Tensor& x : frames) leases[m]->step(x.reshape(in), &out);
    ++done;
  } while (t.elapsed_ms() < min_ms);
  return static_cast<double>(done) / t.elapsed_s();
}

struct LoadResult {
  double throughput = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool ok = true;
};

// Closed-loop clients: each waits for its response before submitting the
// next request, checking every response against the precomputed
// reference.
LoadResult served_throughput(Server& server,
                             const std::vector<RequestSet>& sets, int clients,
                             double min_ms) {
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<bool> bad{false};
  std::atomic<bool> stop{false};
  Timer t;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t i = static_cast<std::uint64_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t m = i % sets.size();
        const std::size_t r = (i / sets.size()) % kRequestsPerModel;
        ++i;
        Server::Ticket ticket =
            server.submit(sets[m].model, sets[m].frames[r]);
        if (!ticket.accepted) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(
              std::chrono::microseconds(ticket.retry_after_us));
          continue;
        }
        const Tensor got = ticket.result.get();
        if (Tensor::max_abs_diff(got, sets[m].reference[r]) != 0.f) {
          bad.store(true, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (t.elapsed_ms() < min_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  const double elapsed_s = t.elapsed_s();

  LoadResult res;
  const serve::ServeStats stats = server.stats();
  res.completed = completed.load();
  res.rejected = rejected.load();
  res.throughput = static_cast<double>(res.completed) / elapsed_s;
  res.p50_ms = stats.p50_ms;
  res.p99_ms = stats.p99_ms;
  res.ok = !bad.load() && stats.failed == 0;
  return res;
}

// Same closed loop, but over the wire: each client thread owns one
// serve::Client connected to `port`, so every request pays encode +
// loopback TCP + decode and exercises the retry/backoff policy for real
// (admission rejections surface as client-side retries, not bench
// sleeps).
LoadResult socket_throughput(Server& server, int port,
                             const std::vector<RequestSet>& sets, int clients,
                             double min_ms) {
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<bool> bad{false};
  std::atomic<bool> stop{false};
  Timer t;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ClientOptions copts;
      copts.port = port;
      copts.jitter_seed = 42 + static_cast<std::uint64_t>(c);
      serve::Client client(std::move(copts));
      std::uint64_t i = static_cast<std::uint64_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t m = i % sets.size();
        const std::size_t r = (i / sets.size()) % kRequestsPerModel;
        ++i;
        const serve::Client::Result res =
            client.infer(sets[m].model, sets[m].frames[r]);
        rejected.fetch_add(res.retries, std::memory_order_relaxed);
        if (!res.ok) {
          // Backpressure surviving all retries is load, not corruption;
          // anything else over loopback is a real failure.
          if (res.status != serve::wire::Status::Rejected) {
            std::fprintf(stderr, "socket client %d: %s (%s)\n", c,
                         res.error.c_str(),
                         serve::wire::status_name(res.status));
            bad.store(true, std::memory_order_relaxed);
            return;
          }
          continue;
        }
        if (Tensor::max_abs_diff(res.value, sets[m].reference[r]) != 0.f) {
          bad.store(true, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (t.elapsed_ms() < min_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  const double elapsed_s = t.elapsed_s();

  LoadResult res;
  const serve::ServeStats stats = server.stats();
  res.completed = completed.load();
  res.rejected = rejected.load();
  res.throughput = static_cast<double>(res.completed) / elapsed_s;
  res.p50_ms = stats.p50_ms;
  res.p99_ms = stats.p99_ms;
  res.ok = !bad.load() && stats.failed == 0;
  return res;
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool smoke = args.get_int("smoke", 0) != 0;
  const double min_ms = args.get_double("min-ms", smoke ? 60.0 : 400.0);
  const std::string out_path = args.get("out", "BENCH_serve.json");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int workers =
      args.get_int("workers", static_cast<int>(std::min(4u, hw)));
  const std::string transport = args.get("transport", "inproc");
  if (transport != "inproc" && transport != "socket") {
    std::fprintf(stderr, "FAIL: unknown --transport '%s'\n",
                 transport.c_str());
    return 1;
  }
  const bool socket_mode = transport == "socket";

  std::vector<SweepPoint> sweep;
  if (smoke) {
    sweep = {{1, 2}, {2, 8}};
  } else {
    sweep = {{1, 1}, {1, 4}, {1, 8}, {2, 8}, {4, 8}};
  }
  const int max_models =
      std::max_element(sweep.begin(), sweep.end(), [](auto a, auto b) {
        return a.models < b.models;
      })->models;

  // One registry for the whole run: the serial baseline and every server
  // share its resident models.
  ModelRegistry registry(static_cast<std::size_t>(max_models));
  std::vector<ModelHandle> models;
  std::vector<RequestSet> all_sets;
  for (int m = 0; m < max_models; ++m) {
    models.push_back(registry.load(make_spec(m)));
    all_sets.push_back(build_requests(models.back(), m));
  }

  JsonArrayWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("%7s %8s %8s %11s %11s %7s %8s %8s\n", "models", "clients",
              "workers", "serial_rps", "served_rps", "vs", "p50ms", "p99ms");

  bool all_ok = true;
  for (const SweepPoint& pt : sweep) {
    std::vector<ModelHandle> serial(models.begin(),
                                    models.begin() + pt.models);
    std::vector<RequestSet> sets(all_sets.begin(),
                                 all_sets.begin() + pt.models);
    const double serial_rps = serial_throughput(serial, sets, min_ms);

    ServeOptions opts;
    opts.workers = workers;
    Server server(registry, opts);
    for (int m = 0; m < pt.models; ++m) server.add_model(make_spec(m));
    LoadResult res;
    if (socket_mode) {
      serve::SocketServer sock(server, opts);  // opts.port 0 -> ephemeral
      res = socket_throughput(server, sock.port(), sets, pt.clients, min_ms);
      sock.shutdown();
    } else {
      res = served_throughput(server, sets, pt.clients, min_ms);
    }
    server.drain();
    if (!res.ok) {
      std::fprintf(stderr,
                   "FAIL: served/reference mismatch or failed requests "
                   "(models=%d clients=%d)\n",
                   pt.models, pt.clients);
      all_ok = false;
    }

    const double vs = serial_rps > 0.0 ? res.throughput / serial_rps : 0.0;
    std::printf("%7d %8d %8d %11.0f %11.0f %6.2fx %8.2f %8.2f\n",
                pt.models, pt.clients, workers, serial_rps, res.throughput,
                vs, res.p50_ms, res.p99_ms);

    json.begin_row();
    json.field("transport", transport);
    json.field("models", static_cast<double>(pt.models));
    json.field("clients", static_cast<double>(pt.clients));
    json.field("workers", static_cast<double>(workers));
    json.field("serial_rps", serial_rps);
    json.field("served_rps", res.throughput);
    json.field("throughput_vs_serial", vs);
    json.field("rejected", static_cast<double>(res.rejected));
    json.field("p50_ms", res.p50_ms);
    json.field("p99_ms", res.p99_ms);
    json.field("hardware_threads", static_cast<double>(hw));
    benchcfg::provenance_fields(json);
    json.end_row();
  }

  if (!all_ok) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace snnskip

int main(int argc, char** argv) { return snnskip::run(argc, argv); }
