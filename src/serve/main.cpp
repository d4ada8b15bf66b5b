// snnskip-serve: high-throughput inference daemon (ISSUE 7, networked in
// ISSUE 8).
//
// Stands up a ModelRegistry + Server and either:
//
//   * serves the CRC-framed loopback TCP protocol (--port N or
//     SNNSKIP_SERVE_PORT; serve/transport.h) until SIGTERM/SIGINT or
//     --duration-s elapses, or
//   * drives itself with an in-process closed-loop client soak (the
//     default, and what bench/serve_load measures).
//
// Models come from --manifests (comma-separated `key value` manifest
// files, see serve/model_registry.h) or a built-in two-model demo with
// synthetic weights. A manifest that fails to load — unreadable or
// corrupt file, duplicate key, CRC-failing checkpoint — is SKIPPED with
// an error log line; the daemon starts with whatever loaded. It only
// fails when nothing loaded.
//
// SIGTERM/SIGINT trigger a graceful drain: admission stops, connected
// clients get a GOAWAY frame, every pending request flushes (bounded by
// SNNSKIP_SERVE_DRAIN_MS), and the final stats line prints before exit.
//
// Usage:
//   snnskip-serve [--manifests a.manifest,b.manifest]
//                 [--port 7433] [--duration-s 5] [--clients 4]
//                 [--timesteps 6] [--rate 0.15] [--telemetry 1]
//                 [--trace-out serve_trace.json]

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_registry.h"
#include "serve/options.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/rng.h"

namespace snnskip::serve {
namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Two small synthetic-weight models so the daemon demos multi-tenant
// serving out of the box (distinct thetas => distinct dispatch mixes).
std::vector<ModelSpec> demo_specs(std::int64_t timesteps) {
  std::vector<ModelSpec> specs(2);
  specs[0].name = "demo-a";
  specs[1].name = "demo-b";
  specs[1].config.lif.threshold = 2.0f;
  for (ModelSpec& s : specs) {
    s.config.width = 8;
    s.config.in_channels = 2;
    s.config.max_timesteps = timesteps;
    s.config.seed = 7;
    s.warm_bn_steps = timesteps;
  }
  return specs;
}

void print_stats(const Server& server, const char* tag) {
  const ServeStats s = server.stats();
  std::printf(
      "[%s] ok=%lld rej=%lld fail=%lld exp=%lld quar=%lld runs=%lld "
      "depth=%lld (hw %lld) p50=%.2fms p99=%.2fms\n",
      tag, static_cast<long long>(s.completed),
      static_cast<long long>(s.rejected), static_cast<long long>(s.failed),
      static_cast<long long>(s.expired),
      static_cast<long long>(s.quarantined),
      static_cast<long long>(s.batches),
      static_cast<long long>(s.queue_depth),
      static_cast<long long>(s.queue_depth_high_water), s.p50_ms, s.p99_ms);
}

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double duration_s = args.get_double("duration-s", 5.0);
  const int clients = args.get_int("clients", 4);
  const std::int64_t timesteps = args.get_int("timesteps", 6);
  const float rate = static_cast<float>(args.get_double("rate", 0.15));
  const std::string trace_out = args.get("trace-out", "");
  if (args.get_int("telemetry", trace_out.empty() ? 0 : 1) != 0) {
    Telemetry::set_enabled(true);
  }

  ServeOptions opts = ServeOptions::from_env();
  if (args.has("port")) opts.port = args.get_int("port", 0);
  const bool socket_mode = args.has("port") || opts.port != 0;

  ModelRegistry registry;
  Server server(registry, opts);

  std::vector<std::string> names;
  if (args.has("manifests")) {
    for (const std::string& path : split_csv(args.get("manifests", ""))) {
      // One corrupt manifest or checkpoint must not keep the healthy
      // models from serving: parse + load recoverably and skip failures.
      std::string err;
      const ModelHandle loaded = registry.try_load(path, &err);
      if (!loaded) {
        std::fprintf(stderr, "skipped %s: %s\n", path.c_str(), err.c_str());
        continue;
      }
      server.add_model(loaded->spec());
      names.push_back(loaded->spec().name);
      std::printf("loaded %-16s (%s)\n", loaded->spec().name.c_str(),
                  path.c_str());
    }
  } else {
    for (const ModelSpec& spec : demo_specs(timesteps)) {
      server.add_model(spec);
      names.push_back(spec.name);
      std::printf("loaded %-16s (built-in demo)\n", spec.name.c_str());
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "FAIL: no models loaded\n");
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration_s);

  if (socket_mode) {
    // Network mode: the transport owns all client traffic; this thread
    // only prints stats and watches for shutdown.
    SocketServer transport(server, opts);
    std::printf("serving on 127.0.0.1:%d\n", transport.port());
    while (!g_stop.load(std::memory_order_relaxed) &&
           (duration_s <= 0.0 || std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      print_stats(server, "serve");
    }
    transport.shutdown();  // goaway every connection
    const bool clean = server.drain();
    print_stats(server, "final");
    const SocketServer::TransportStats ts = transport.stats();
    std::printf(
        "[transport] conns=%lld frames=%lld torn=%lld resp=%lld "
        "dropped=%lld disc=%lld timeouts=%lld accfail=%lld\n",
        static_cast<long long>(ts.connections),
        static_cast<long long>(ts.frames_rx),
        static_cast<long long>(ts.frames_torn),
        static_cast<long long>(ts.responses_tx),
        static_cast<long long>(ts.dropped_responses),
        static_cast<long long>(ts.disconnects),
        static_cast<long long>(ts.timeouts),
        static_cast<long long>(ts.accept_failures));
    if (!clean) std::fprintf(stderr, "WARN: drain timed out\n");
  } else {
    // Closed-loop clients: each submits one sequence at a time to a model
    // picked round-robin per request, backing off by the server's
    // retry_after_us hint when rejected.
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(1000 + static_cast<std::uint64_t>(c));
        const Shape frame{2, 8, 8};
        std::uint64_t i = 0;
        while (!g_stop.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < deadline) {
          const std::string& model =
              names[(static_cast<std::size_t>(c) + i++) % names.size()];
          std::vector<Tensor> frames;
          frames.reserve(static_cast<std::size_t>(timesteps));
          for (std::int64_t t = 0; t < timesteps; ++t) {
            frames.push_back(Tensor::bernoulli(frame, rng, rate));
          }
          Server::Ticket ticket = server.submit(model, std::move(frames));
          if (!ticket.accepted) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(ticket.retry_after_us));
            continue;
          }
          ticket.result.get();
        }
      });
    }

    while (!g_stop.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      print_stats(server, "serve");
    }

    g_stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    server.drain();
    print_stats(server, "final");
  }

  if (!trace_out.empty()) {
    if (!write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace snnskip::serve

int main(int argc, char** argv) { return snnskip::serve::run(argc, argv); }
