#pragma once
// TCP loopback transport for the serving daemon (ISSUE 8).
//
// SocketServer fronts a serve::Server with a real byte-stream interface:
// a nonblocking accept/read/write loop (one I/O thread, poll()-driven)
// speaking the length-prefixed, CRC-framed protocol of serve/protocol.h.
// The serving core stays transport-agnostic — the I/O thread only
// decodes frames, calls Server::submit_async, and encodes the Outcome the
// completion callback delivers (on a worker thread) into the
// connection's write queue, waking the poll loop through a self-pipe.
//
// Failure containment (the whole point — each path has a deterministic
// fault site and a chaos drill in tests/serve_fault_test.cpp):
//
//   * Torn frame (`serve.frame_torn`): a payload whose CRC fails is
//     answered with Status::CrcError and the connection SURVIVES — the
//     length prefix still delimits the frame, so the stream stays
//     synchronized. Only structural corruption (bad magic, oversize
//     length) closes the connection, because resync is impossible.
//   * Client disconnect (`serve.client_disconnect`): a peer vanishing
//     mid-request never cancels engine work — the request completes, the
//     lease returns to the pool, and the orphaned response is dropped on
//     the floor (dropped_responses counter).
//   * Accept failure (`serve.accept_fail`): logged and counted; the
//     listener keeps accepting.
//   * Read stall (`serve.read_stall`): a connection that stops making
//     progress mid-frame is closed after ServeOptions::io_timeout_ms, so
//     a slow-loris client pins one fd, not a worker.
//
// Shutdown: shutdown() stops accepting, sends a GOAWAY frame on every
// connection, and closes each one once its in-flight responses have
// flushed. The destructor shuts down, drains the wrapped Server, then
// BLOCKS until every completion callback handed to submit_async has run
// — drain() is bounded by drain_timeout_ms and can return with requests
// still executing, and each of those callbacks captures `this`, so the
// destructor may not proceed on drain's word alone. A timed-out drain
// fails every still-queued request before it returns, so this wait is
// short; only a worker wedged INSIDE an engine step holds it up, and
// that worker would hang the Server's own destructor (pool join)
// regardless. Finally the I/O thread is joined.
//
// Deadlines cross the wire as absolute CLOCK_MONOTONIC values
// (wire::mono_now_ns) — valid because the transport is loopback/LAN
// scoped to one machine; see protocol.h.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/options.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace snnskip::serve {

class SocketServer {
 public:
  /// Binds 127.0.0.1:opts.port (0 = ephemeral; read back via port()),
  /// listens, and starts the I/O thread. Throws std::runtime_error when
  /// the socket cannot be bound. `server` must outlive this object.
  SocketServer(Server& server, const ServeOptions& opts);
  ~SocketServer();  ///< shutdown() + server.drain() + join
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound TCP port.
  int port() const { return port_; }

  /// Begin graceful shutdown: stop accepting, goaway every connection,
  /// flush in-flight responses, then close. Does NOT drain the Server
  /// (callers order that themselves: shutdown() -> Server::drain()).
  /// Idempotent, non-blocking.
  void shutdown();

  struct TransportStats {
    std::int64_t connections = 0;       ///< total accepted
    std::int64_t frames_rx = 0;         ///< complete frames parsed
    std::int64_t frames_torn = 0;       ///< CRC-failed frames rejected
    std::int64_t responses_tx = 0;      ///< responses enqueued to clients
    std::int64_t dropped_responses = 0; ///< completions after disconnect
    std::int64_t disconnects = 0;       ///< peer resets/EOFs + injected
    std::int64_t timeouts = 0;          ///< io_timeout_ms closes
    std::int64_t accept_failures = 0;   ///< failed/injected accepts
    std::int64_t protocol_errors = 0;   ///< unrecoverable stream errors
  };
  TransportStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    wire::FrameAssembler in;
    std::int64_t last_progress_ns = 0;  ///< last successful read/write
    bool stalled = false;  ///< serve.read_stall fired on this conn
    bool closing = false;  ///< close once outq flushes + inflight hits 0

    /// out_mu guards everything below (completion callbacks run on worker
    /// threads and append here while the I/O thread flushes).
    std::mutex out_mu;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    std::int64_t inflight = 0;  ///< submitted, response not yet enqueued
    bool closed = false;        ///< fd closed; drop completions for it
  };
  using ConnPtr = std::shared_ptr<Conn>;

  void io_loop();
  void do_accept();
  void handle_readable(const ConnPtr& c);
  void handle_frame(const ConnPtr& c, wire::FrameAssembler::Frame frame);
  void handle_writable(const ConnPtr& c);
  /// Completion path (any thread): append an encoded frame to the
  /// connection's write queue if it still exists, else drop.
  void enqueue_response(std::uint64_t conn_id,
                        std::vector<std::uint8_t> frame);
  void send_response_now(const ConnPtr& c, const wire::ResponseMsg& m);
  void close_conn(const ConnPtr& c);
  void wake();

  Server& server_;
  const ServeOptions opts_;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;
  int port_ = 0;

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> hard_stop_{false};

  mutable std::mutex cmu_;  ///< conns_ map (I/O thread + completion threads)
  std::map<std::uint64_t, ConnPtr> conns_;
  std::uint64_t next_conn_id_ = 1;
  bool goaway_sent_ = false;  ///< I/O thread only

  // Completion callbacks in flight (handed to submit_async, not yet
  // finished running). Each captures `this`; the destructor waits for
  // zero, since Server::drain() alone is no guarantee — it times out.
  std::mutex cb_mu_;
  std::condition_variable cb_cv_;
  std::int64_t pending_callbacks_ = 0;  ///< guarded by cb_mu_

  // Stats (atomics: bumped from the I/O thread and completion threads).
  std::atomic<std::int64_t> connections_{0}, frames_rx_{0}, frames_torn_{0},
      responses_tx_{0}, dropped_responses_{0}, disconnects_{0}, timeouts_{0},
      accept_failures_{0}, protocol_errors_{0};

  std::thread io_;
};

}  // namespace snnskip::serve
