#pragma once
// Client library for the snnskip-serve TCP transport (ISSUE 8).
//
// A Client owns one blocking loopback connection and speaks the
// one-outstanding-request protocol of serve/protocol.h: send a Request
// frame, wait for the matching Response. What it adds over a raw socket
// is the FAULT-TOLERANCE policy, so every caller (bench/serve_load's
// socket mode, the chaos drills, a user's driver script) retries the same
// way:
//
//   * Capped exponential backoff with deterministic jitter. Attempt k
//     sleeps in [d/2, d] where d = min(backoff_cap_us,
//     backoff_base_us * 2^k); the jitter stream is splitmix64 seeded from
//     ClientOptions::jitter_seed, so a drill replays the exact same
//     delays. When the server supplied a retry_after_us backpressure
//     hint, the sleep is max(hint, jittered backoff) — the server knows
//     its backlog better than the client's schedule does.
//   * Retry classification: Rejected (backpressure), Failed (transient
//     engine failure — the server quarantine-reloads the model before the
//     failure is even reported, so an immediate retry hits a fresh copy),
//     CrcError (torn frame; resend) and connection errors are retried up
//     to max_retries. Ok, Expired, BadRequest and Goaway are terminal:
//     more attempts cannot change the answer.
//   * Deadline honesty: a nonzero absolute deadline (wire::mono_now_ns
//     domain) is checked before every attempt — the client returns
//     Expired locally rather than submitting work whose answer it will
//     not wait for, mirroring the server's own pre-execution shedding.
//
// Clients are NOT thread-safe; use one Client per thread (each costs one
// fd). Connection setup is lazy and re-establishment after an error is
// automatic on the next attempt.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace snnskip::serve {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< required (no default port; tests use ephemeral)
  /// Socket send/receive timeout (SO_SNDTIMEO/SO_RCVTIMEO). A server that
  /// stops responding surfaces as a retryable connection error after this
  /// long, never a hang.
  std::int64_t io_timeout_ms = 2000;
  std::int64_t max_retries = 8;  ///< retry attempts AFTER the first try
  std::int64_t backoff_base_us = 200;
  std::int64_t backoff_cap_us = 50'000;
  std::uint64_t jitter_seed = 0x9E3779B97F4A7C15ull;

  /// Defaults overlaid with SNNSKIP_CLIENT_RETRIES,
  /// SNNSKIP_CLIENT_BACKOFF_US, SNNSKIP_CLIENT_BACKOFF_CAP_US.
  static ClientOptions from_env();
};

class Client {
 public:
  explicit Client(ClientOptions opts);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Result {
    bool ok = false;
    wire::Status status = wire::Status::Failed;
    Tensor value;       ///< rate-accumulated head output when ok
    std::string error;  ///< final failure detail otherwise
    std::int64_t retries = 0;  ///< attempts beyond the first
  };

  /// Run one sequence through the server, retrying per the policy above.
  /// `deadline_ns` is an absolute wire::mono_now_ns() value (0 = none)
  /// propagated to the server and honored locally between retries.
  Result infer(const std::string& model, const std::vector<Tensor>& frames,
               std::int64_t deadline_ns = 0);

  /// The delay before retry attempt `attempt` (0-based), combining the
  /// jittered exponential backoff with the server's retry_after_us hint.
  /// Deterministic for a given seed; advances the jitter stream. Public
  /// so tests can replay the schedule.
  std::int64_t backoff_delay_us(std::int64_t attempt,
                                std::int64_t server_hint_us);

  bool connected() const { return fd_ >= 0; }
  /// Server sent GOAWAY (draining); subsequent infer() fails fast.
  bool goaway() const { return goaway_; }

 private:
  bool connect_();  ///< idempotent; false on failure (errno in last_err_)
  void disconnect_();
  /// One send+receive attempt. Returns false on connection-level failure
  /// (out->status untouched); true with *out filled otherwise.
  bool try_once(const std::vector<std::uint8_t>& frame, std::uint64_t id,
                wire::ResponseMsg* out);

  ClientOptions opts_;
  int fd_ = -1;
  wire::FrameAssembler in_;
  std::uint64_t next_id_ = 1;
  std::uint64_t jitter_state_;
  bool goaway_ = false;
  std::string last_err_;
};

}  // namespace snnskip::serve
