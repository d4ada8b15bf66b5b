#pragma once
// Serving-daemon configuration (ISSUE 7).
//
// All knobs have compiled-in defaults; from_env() overlays the
// SNNSKIP_SERVE_* environment variables (read through util/runtime_env,
// documented in README "Runtime environment variables"). Like
// infer::ExecOptions, the environment only seeds a configuration VALUE —
// a constructed Server snapshots its ServeOptions and never consults
// process-global state afterwards.

#include <cstddef>
#include <cstdint>

namespace snnskip::serve {

struct ServeOptions {
  /// Admission watermark across all models: submits beyond this many
  /// queued (not yet running) requests are rejected with a
  /// retry-after hint instead of growing the queue without bound
  /// (postgres-style backpressure: fail fast, keep the server live).
  std::int64_t queue_capacity = 256;

  /// Request-execution thread-pool size. Each running request leases one
  /// engine from the model's pool, so this also bounds engines per model.
  std::int64_t workers = 2;

  /// Ring of most recent per-request latencies kept for p50/p99.
  std::size_t latency_window = 8192;

  /// TCP port for the loopback transport (serve/transport.h). 0 binds an
  /// ephemeral port (tests/benches read it back via SocketServer::port()).
  std::int64_t port = 0;

  /// Per-connection I/O timeout: a connection stalled mid-frame (bytes
  /// buffered but no complete frame arriving) or wedged by the
  /// serve.read_stall fault is closed after this long with no progress.
  /// Idle connections with no half-read frame are NOT reaped — a quiet
  /// persistent client costs one fd, not a worker.
  std::int64_t io_timeout_ms = 2000;

  /// Upper bound on Server::drain(): if queued + running work has not
  /// finished after this long (a wedged worker, a runaway request), drain
  /// fails the still-queued requests and returns false instead of hanging
  /// SIGTERM/SIGINT shutdown forever. 0 waits without bound.
  std::int64_t drain_timeout_ms = 30000;

  /// Compiled-in defaults overlaid with SNNSKIP_SERVE_QUEUE,
  /// SNNSKIP_SERVE_WORKERS, SNNSKIP_SERVE_PORT,
  /// SNNSKIP_SERVE_IO_TIMEOUT_MS, SNNSKIP_SERVE_DRAIN_MS.
  static ServeOptions from_env();
};

}  // namespace snnskip::serve
