#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "fault/inject.h"
#include "serve/protocol.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace snnskip::serve {

namespace {

/// Promise adapter: maps Outcome onto the Ticket future (exceptions for
/// everything that is not Ok, so result.get() keeps throwing like before
/// deadlines existed).
std::function<void(Outcome)> promise_completion(
    std::shared_ptr<std::promise<Tensor>> prom) {
  return [prom = std::move(prom)](Outcome o) {
    if (o.status == RequestStatus::Ok) {
      prom->set_value(std::move(o.value));
    } else {
      const char* what = o.status == RequestStatus::Expired
                             ? "serve::Server: deadline expired"
                             : "serve::Server: request failed";
      prom->set_exception(std::make_exception_ptr(std::runtime_error(
          o.error.empty() ? what : std::string(what) + ": " + o.error)));
    }
  };
}

}  // namespace

Server::Server(ModelRegistry& registry, ServeOptions opts)
    : opts_(opts), registry_(registry) {
  latency_ring_.assign(std::max<std::size_t>(1, opts_.latency_window), 0.0);
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max<std::int64_t>(1, opts_.workers)));
}

Server::~Server() {
  drain();
  pool_.reset();  // joins workers; leftover tasks find the queue empty
}

void Server::add_model(const ModelSpec& spec) {
  ModelHandle model = registry_.load(spec);
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    throw std::logic_error("serve::Server: add_model after drain");
  }
  models_[spec.name] = std::move(model);
}

void Server::submit_async(const std::string& model, std::vector<Tensor> frames,
                          const SubmitOptions& sub,
                          std::function<void(Outcome)> done) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = models_.find(model);
  if (it == models_.end()) {
    throw std::invalid_argument("serve::Server: unknown model '" + model +
                                "'");
  }
  const Shape& in = it->second->plan()->input_shape;
  if (frames.empty()) {
    throw std::invalid_argument("serve::Server: empty request sequence");
  }
  const Shape frame_shape{in[1], in[2], in[3]};
  for (const Tensor& f : frames) {
    if (f.shape() != frame_shape) {
      throw std::invalid_argument(
          "serve::Server: frame shape does not match the model's compiled "
          "(C, H, W)");
    }
  }

  // Admission control: shed load at the edge once the backlog passes the
  // watermark (or when draining), with a retry hint sized to the time the
  // workers need to clear the current backlog at the measured
  // per-request execute time.
  const auto queued = static_cast<std::int64_t>(queue_.size());
  if (draining_ || queued >= opts_.queue_capacity ||
      SNNSKIP_FAULT("serve.queue_full")) {
    ++rejected_;
    Telemetry::count("serve.rejected");
    Outcome o;
    o.status = RequestStatus::Rejected;
    o.retry_after_us =
        draining_ ? 0
                  : std::max<std::int64_t>(
                        1, exec_ns_ / 1000 *
                               (1 + queued / std::max<std::int64_t>(
                                                 1, opts_.workers)));
    o.error = draining_ ? "draining" : "queue full";
    lock.unlock();
    done(std::move(o));
    return;
  }

  queue_.push_back(Request{model, std::move(frames), std::move(done),
                           Telemetry::now_ns(), sub.deadline_ns});
  ++accepted_;
  depth_high_water_ = std::max(depth_high_water_, queued + 1);
  Telemetry::count("serve.requests");
  Telemetry::count_max("serve.queue_depth.high_water",
                       static_cast<double>(queued + 1));
  lock.unlock();
  pool_->submit([this] { run_next(); });
}

Server::Ticket Server::submit(const std::string& model,
                              std::vector<Tensor> frames,
                              const SubmitOptions& sub) {
  Ticket t;
  auto prom = std::make_shared<std::promise<Tensor>>();
  std::future<Tensor> fut = prom->get_future();
  // Admission rejections complete synchronously; map them onto the
  // rejected-Ticket shape instead of a future exception so existing
  // backpressure callers keep their retry_after_us hint. The rejection
  // flag lives in shared state captured BY VALUE — the callback must
  // never hold references into this frame, because nothing but the
  // current synchronous-rejection invariant keeps it from running after
  // submit() returns. If that invariant ever breaks, the rejection also
  // settles the promise below, so the accepted-looking future the caller
  // got throws instead of dangling forever.
  struct RejectGate {
    bool rejected = false;
    std::int64_t retry_after_us = 0;
  };
  auto gate = std::make_shared<RejectGate>();
  submit_async(model, std::move(frames), sub, [gate, prom](Outcome o) {
    if (o.status == RequestStatus::Rejected) {
      gate->rejected = true;
      gate->retry_after_us = o.retry_after_us;
      prom->set_exception(std::make_exception_ptr(std::runtime_error(
          "serve::Server: request rejected (retry in " +
          std::to_string(o.retry_after_us) + "us)")));
      return;
    }
    promise_completion(prom)(std::move(o));
  });
  if (gate->rejected) {
    t.accepted = false;
    t.retry_after_us = gate->retry_after_us;
    return t;
  }
  t.accepted = true;
  t.result = std::move(fut);
  return t;
}

Tensor Server::infer(const std::string& model, std::vector<Tensor> frames) {
  Ticket t = submit(model, std::move(frames));
  if (!t.accepted) {
    throw std::runtime_error("serve::Server: request rejected (retry in " +
                             std::to_string(t.retry_after_us) + "us)");
  }
  return t.result.get();
}

bool Server::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  auto idle = [this] { return queue_.empty() && running_ == 0; };
  if (opts_.drain_timeout_ms <= 0) {
    drain_cv_.wait(lock, idle);
    return true;
  }
  if (drain_cv_.wait_for(
          lock, std::chrono::milliseconds(opts_.drain_timeout_ms), idle)) {
    return true;
  }
  // Timed out: a worker is wedged or a request is pathologically slow.
  // Fail whatever is still QUEUED so no promise dangles; their pool tasks
  // find the queue empty. The requests running right now still complete
  // normally.
  std::deque<Request> orphans;
  orphans.swap(queue_);
  failed_ += static_cast<std::int64_t>(orphans.size());
  lock.unlock();
  SNNSKIP_LOG(Warn) << "serve: drain timed out after "
                    << opts_.drain_timeout_ms << "ms; failing "
                    << orphans.size() << " queued request(s)";
  for (Request& req : orphans) {
    Outcome o;
    o.status = RequestStatus::Failed;
    o.error = "drain timeout";
    req.done(std::move(o));
  }
  return false;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void Server::run_next() {
  Request req;
  ModelHandle model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return;  // failed by a timed-out drain
    req = std::move(queue_.front());
    queue_.pop_front();
    auto it = models_.find(req.model);
    if (it != models_.end()) model = it->second;
    ++running_;
  }

  // Shed a request whose deadline already passed: engine time is the
  // scarce resource, and an answer past its deadline is wasted work.
  Outcome o;
  bool poisoned = false;
  std::int64_t exec_ns = -1;  // engine run time; -1 when none ran
  if (req.deadline_ns > 0 && wire::mono_now_ns() >= req.deadline_ns) {
    Telemetry::count("serve.deadline_expired");
    o.status = RequestStatus::Expired;
    o.error = "deadline expired in queue";
  } else if (!model) {
    o.status = RequestStatus::Failed;
    o.error = "model '" + req.model + "' was unregistered";
  } else {
    const std::uint64_t start_ns = Telemetry::now_ns();
    telemetry::record_span("serve.queue_wait", req.model, req.enqueue_ns,
                           start_ns - req.enqueue_ns);
    o = execute(model, req, &poisoned);
    const std::uint64_t end_ns = Telemetry::now_ns();
    exec_ns = static_cast<std::int64_t>(end_ns - start_ns);
    if (o.status == RequestStatus::Ok) {
      record_latency(static_cast<double>(end_ns - req.enqueue_ns) / 1e6);
    }
  }

  // Quarantine BEFORE reporting the failure: a client that retries the
  // moment it sees the failure must already find the reloaded model.
  if (poisoned) quarantine_model(model);

  // Account the outcome BEFORE invoking the callback: a client that
  // returns from result.get() must already see its request in stats().
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (exec_ns >= 0) {
      ++runs_;
      exec_ns_ = exec_ns_ == 0 ? exec_ns : exec_ns_ + (exec_ns - exec_ns_) / 8;
    }
    if (o.status == RequestStatus::Ok) {
      ++completed_;
    } else if (o.status == RequestStatus::Expired) {
      ++expired_;
    } else {
      ++failed_;
    }
  }
  req.done(std::move(o));
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
  }
  drain_cv_.notify_all();
}

Outcome Server::execute(const ModelHandle& model, const Request& req,
                        bool* poisoned) {
  SNNSKIP_SPAN("serve.execute", req.model);
  Outcome o;
  try {
    LoadedModel::Lease lease = model->lease();
    const infer::Plan& plan = *model->plan();
    const std::int64_t classes = plan.output_shape.numel();
    Tensor x(plan.input_shape);
    Tensor out(plan.output_shape);
    Tensor acc(Shape{classes});
    for (const Tensor& f : req.frames) {
      std::memcpy(x.data(), f.data(),
                  static_cast<std::size_t>(x.numel()) * sizeof(float));
      lease->step(x, &out);
      if (SNNSKIP_FAULT("serve.engine_nan")) {
        // Simulated corrupted-weights blowup: poison the step output the
        // same way an Inf/NaN weight would.
        out.fill(std::numeric_limits<float>::quiet_NaN());
      }
      for (std::int64_t c = 0; c < classes; ++c) {
        acc.data()[c] += out.data()[c];
      }
    }
    // A non-finite output means the model itself is unhealthy (weights
    // or state corrupt): fail the request and quarantine the model.
    for (std::int64_t c = 0; c < classes; ++c) {
      if (!std::isfinite(acc.data()[c])) {
        *poisoned = true;
        o.status = RequestStatus::Failed;
        o.error = "non-finite engine output (model quarantined)";
        return o;
      }
    }
    o.status = RequestStatus::Ok;
    o.value = std::move(acc);
  } catch (const std::exception& e) {
    o.status = RequestStatus::Failed;
    o.error = e.what();
  } catch (...) {
    o.status = RequestStatus::Failed;
    o.error = "unknown execution failure";
  }
  return o;
}

void Server::quarantine_model(const ModelHandle& model) {
  const std::string name = model->spec().name;
  // Serialize cycles so two poisoned runs of one model trigger one
  // reload; the identity check below makes the second a no-op.
  std::lock_guard<std::mutex> qlock(quarantine_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(name);
    if (it == models_.end() || it->second != model) {
      return;  // already quarantined and swapped (or model was removed)
    }
  }
  Telemetry::count("serve.quarantined");
  SNNSKIP_LOG(Error) << "serve: non-finite output from model '" << name
                     << "'; quarantining (evict + reload)";
  registry_.evict(name);
  std::string err;
  ModelHandle fresh = registry_.try_load(model->spec(), &err);

  const bool reloaded = fresh != nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++quarantined_;
    auto it = models_.find(name);
    if (it != models_.end() && it->second == model) {
      if (reloaded) {
        it->second = std::move(fresh);
      } else {
        // Reload failed too (checkpoint corrupt on disk): unregister the
        // model so submits report it unknown instead of serving poison;
        // its queued requests fail when popped.
        models_.erase(it);
      }
    }
  }
  if (!reloaded) {
    SNNSKIP_LOG(Error) << "serve: quarantine reload of '" << name
                       << "' failed (" << err << "); model unregistered";
  }
}

void Server::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(lat_mu_);
  latency_ring_[lat_next_] = ms;
  if (++lat_next_ == latency_ring_.size()) {
    lat_next_ = 0;
    lat_full_ = true;
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.expired = expired_;
    s.quarantined = quarantined_;
    s.batches = runs_;
    s.queue_depth = static_cast<std::int64_t>(queue_.size());
    s.queue_depth_high_water = depth_high_water_;
  }
  std::vector<double> lat;
  {
    std::lock_guard<std::mutex> lock(lat_mu_);
    lat.assign(latency_ring_.begin(),
               lat_full_ ? latency_ring_.end()
                         : latency_ring_.begin() +
                               static_cast<std::ptrdiff_t>(lat_next_));
  }
  if (!lat.empty()) {
    auto pct = [&lat](double p) {
      const std::size_t k = static_cast<std::size_t>(
          p * static_cast<double>(lat.size() - 1) + 0.5);
      std::nth_element(lat.begin(),
                       lat.begin() + static_cast<std::ptrdiff_t>(k),
                       lat.end());
      return lat[k];
    };
    s.p50_ms = pct(0.50);
    s.p99_ms = pct(0.99);
  }
  return s;
}

}  // namespace snnskip::serve
