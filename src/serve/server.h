#pragma once
// Inference daemon core (ISSUE 7, hardened in ISSUE 8): one request per
// engine run, bounded-queue admission control with explicit
// backpressure, end-to-end deadline propagation, model quarantine, and
// bounded graceful drain.
//
// Request model: a request is one event-stream sequence — T frames of
// shape (C, H, W) for a named model — and its response is the
// rate-accumulated head output (the per-class spike/logit sum over the
// sequence, the quantity the paper's rate decoding classifies on).
//
// Pipeline:
//
//   submit()  --admission-->  one FIFO + one pool task per request
//   --ThreadPool-->  the task pops the OLDEST queued request, leases a
//   pooled Engine (compiled at batch 1), steps it T times, completes it
//
// Every engine run serves exactly one request on one worker, so
// concurrent requests run in parallel on the pool, and a served answer is
// bitwise the answer of a direct engine run over the same frames.
//
// * Admission control: one watermark across all models
//   (ServeOptions::queue_capacity). A submit over the watermark is
//   REJECTED immediately with a retry_after_us hint: the measured
//   per-request execute time times the backlog per worker (at least
//   1 us) — shed load explicitly at the edge instead of letting latency
//   grow without bound. Fault site `serve.queue_full` forces this path
//   deterministically.
// * Deadline propagation: a request may carry an ABSOLUTE deadline
//   (wire::mono_now_ns() domain, CLOCK_MONOTONIC). A request popped past
//   its deadline is answered Expired without engine time (counter
//   `serve.deadline_expired`) — including requests that waited out their
//   budget behind busy workers. Deadlines arriving over the transport
//   (serve/transport.h) flow through unchanged, so a client timeout
//   bounds server work end to end.
// * Quarantine: a run whose engine output contains a non-finite value
//   (a corrupted weight blob, an overflowing activation, or the injected
//   `serve.engine_nan` fault) fails ONLY that request, then evicts the
//   model from the registry and reloads it from its spec — checkpoint
//   re-read, plan re-compiled — before the failure is reported (counter
//   `serve.quarantined`), so a client that retries on failure
//   immediately hits the fresh copy. If even the reload fails
//   (checkpoint now corrupt on disk) the model is unregistered and its
//   still-queued requests fail when popped: one poisoned blob degrades
//   one model, never the daemon.
// * Graceful drain: drain() stops admission and returns once nothing is
//   queued or running — but never waits longer than
//   ServeOptions::drain_timeout_ms: on timeout the still-queued requests
//   are failed and drain returns false, so a wedged worker cannot hang
//   SIGTERM/SIGINT shutdown forever. The destructor drains.
//
// Telemetry (enabled runs): per-request `serve.queue_wait` and
// `serve.execute` spans, and serve.requests / serve.rejected /
// serve.deadline_expired / serve.quarantined counters with a
// serve.queue_depth.high_water gauge. Latency p50/p99 over a recent
// window is always available from stats().

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "serve/model_registry.h"
#include "serve/options.h"
#include "tensor/tensor.h"

namespace snnskip::serve {

/// Aggregate server statistics (stats(); all totals since construction).
struct ServeStats {
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;   ///< engine failures (incl. quarantines)
  std::int64_t expired = 0;  ///< shed with an already-expired deadline
  std::int64_t quarantined = 0;  ///< model evict+reload cycles
  std::int64_t batches = 0;      ///< engine runs (one request each)
  std::int64_t queue_depth = 0;  ///< instantaneous queued requests
  std::int64_t queue_depth_high_water = 0;
  double p50_ms = 0.0;  ///< over the recent-latency window
  double p99_ms = 0.0;
};

/// Terminal disposition of one accepted request.
enum class RequestStatus {
  Ok,
  Rejected,  ///< admission shed it (submit_async only; submit() returns
             ///< a rejected Ticket instead)
  Expired,   ///< deadline passed before execution
  Failed,    ///< engine failure / quarantine / drain timeout
};

/// What a completion callback receives, exactly once per request.
struct Outcome {
  RequestStatus status = RequestStatus::Failed;
  Tensor value;                     ///< valid when status == Ok
  std::int64_t retry_after_us = 0;  ///< backpressure hint when Rejected
  std::string error;                ///< human-readable detail otherwise
};

struct SubmitOptions {
  /// Absolute deadline in wire::mono_now_ns() (CLOCK_MONOTONIC); 0 = no
  /// deadline. Expired requests are shed before they reach an engine.
  std::int64_t deadline_ns = 0;
};

class Server {
 public:
  /// `registry` must outlive the server. Snapshots `opts`.
  Server(ModelRegistry& registry, ServeOptions opts = ServeOptions::from_env());
  ~Server();  ///< drains, then joins the workers
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load `spec` through the registry and accept requests for
  /// `spec.name`. Not callable after drain(). Throws on load failure —
  /// daemon startup paths that must survive a bad model use
  /// ModelRegistry::try_load + add_model(spec) in a try block, or the
  /// snnskip-serve binary's per-manifest skip logic.
  void add_model(const ModelSpec& spec);

  /// Outcome of submit: either a future for the rate-accumulated head
  /// output (shape (num_classes,)), or a rejection with a backpressure
  /// hint.
  struct Ticket {
    bool accepted = false;
    std::int64_t retry_after_us = 0;  ///< only meaningful when rejected
    std::future<Tensor> result;       ///< valid only when accepted
  };

  /// Submit a sequence for `model` (added via add_model; unknown names
  /// throw std::invalid_argument, as do empty sequences and frames whose
  /// shape differs from the model's compiled (C, H, W)). Never blocks on
  /// the queue: over-watermark submits return a rejected ticket. A shed
  /// deadline or an engine failure surfaces as std::runtime_error from
  /// result.get().
  Ticket submit(const std::string& model, std::vector<Tensor> frames,
                const SubmitOptions& sub = {});

  /// Callback form (what the transport uses): `done` is invoked exactly
  /// once — synchronously for admission rejections, from a worker thread
  /// otherwise. The callback must not re-enter the Server. Throws
  /// std::invalid_argument for malformed requests, like submit().
  void submit_async(const std::string& model, std::vector<Tensor> frames,
                    const SubmitOptions& sub,
                    std::function<void(Outcome)> done);

  /// Convenience: submit and wait. Throws std::runtime_error on
  /// rejection (callers that want backpressure semantics use submit()).
  Tensor infer(const std::string& model, std::vector<Tensor> frames);

  /// Stop admission and return once nothing is queued or running — or
  /// after ServeOptions::drain_timeout_ms, whichever comes first. On
  /// timeout, still-queued requests complete with RequestStatus::Failed
  /// and drain returns false (running requests complete whenever their
  /// worker finishes). Idempotent.
  bool drain();
  bool draining() const;

  ServeStats stats() const;

 private:
  struct Request {
    std::string model;
    std::vector<Tensor> frames;
    std::function<void(Outcome)> done;
    std::uint64_t enqueue_ns = 0;   ///< Telemetry::now_ns at admission
    std::int64_t deadline_ns = 0;   ///< wire::mono_now_ns domain; 0 = none
  };

  /// Pool task, one per accepted request: pop the oldest queued request
  /// and answer it — Expired past its deadline, Failed when its model
  /// was unregistered, otherwise from one engine run.
  void run_next();
  /// Step a leased engine over `req`'s frames; sets `*poisoned` on a
  /// non-finite output.
  Outcome execute(const ModelHandle& model, const Request& req,
                  bool* poisoned);
  /// Evict + reload `model` after a poisoned run; swaps the fresh handle
  /// in (or unregisters the model when the reload itself fails). No
  /// locks held by the caller.
  void quarantine_model(const ModelHandle& model);
  void record_latency(double ms);

  const ServeOptions opts_;
  ModelRegistry& registry_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;  // drain() completion
  std::map<std::string, ModelHandle> models_;
  std::deque<Request> queue_;  // FIFO across models
  std::int64_t running_ = 0;   // requests popped and not yet completed
  bool draining_ = false;
  std::int64_t exec_ns_ = 0;  // moving average of one request's execute

  // Serializes quarantine evict+reload cycles (never held with mu_).
  std::mutex quarantine_mu_;

  // Totals (guarded by mu_).
  std::int64_t accepted_ = 0, rejected_ = 0, completed_ = 0, failed_ = 0;
  std::int64_t expired_ = 0, quarantined_ = 0, runs_ = 0;
  std::int64_t depth_high_water_ = 0;

  // Recent request latencies (own lock: hot path, touched per request).
  mutable std::mutex lat_mu_;
  std::vector<double> latency_ring_;
  std::size_t lat_next_ = 0;
  bool lat_full_ = false;

  std::unique_ptr<ThreadPool> pool_;  // request execution workers
};

}  // namespace snnskip::serve
