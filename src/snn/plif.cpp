#include "snn/plif.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "telemetry/retained.h"
#include "telemetry/telemetry.h"

namespace snnskip {

namespace {
float sigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }
}  // namespace

Plif::Plif(LifConfig cfg, std::string layer_name)
    : cfg_(cfg), name_(std::move(layer_name)) {
  // logit(initial beta): beta = 0.9 -> w ~= 2.197.
  const float b = std::clamp(cfg_.beta, 0.01f, 0.99f);
  leak_ = Parameter(name_ + ".leak",
                    Tensor(Shape{1}, std::vector<float>{
                                         std::log(b / (1.f - b))}));
}

float Plif::beta() const { return sigmoid(leak_.value[0]); }

Tensor Plif::forward(const Tensor& x, bool train) {
  SNNSKIP_SPAN("plif.fwd", name_);
  if (!has_state_ || membrane_.shape() != x.shape()) {
    membrane_ = Tensor(x.shape());
    has_state_ = true;
  }
  const float b = beta();

  Tensor spikes(x.shape());
  Ctx ctx;
  if (train) {
    ctx.u = Tensor(x.shape());
    ctx.prev_mem = membrane_;  // V'_{t-1} before integration
  }
  const std::int64_t n = x.numel();
  float* v = membrane_.data();
  const float* in = x.data();
  float* s = spikes.data();
  double spike_count = 0.0;

  for (std::int64_t i = 0; i < n; ++i) {
    const float vt = b * v[i] + in[i];
    const float dist = vt - cfg_.threshold;
    if (train) ctx.u[static_cast<std::size_t>(i)] = dist;
    if (dist >= 0.f) {
      s[i] = 1.f;
      v[i] = vt - cfg_.threshold;
      spike_count += 1.0;
    } else {
      s[i] = 0.f;
      v[i] = vt;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->record(name_, spike_count, static_cast<double>(n));
  }
  Telemetry::count("spikes", spike_count);
  if (train) {
    ctx.bytes = (ctx.u.numel() + ctx.prev_mem.numel()) *
                static_cast<std::int64_t>(sizeof(float));
    RetainedActivations::add(ctx.bytes);
    saved_.push_back(std::move(ctx));
  }
  return spikes;
}

Tensor Plif::backward(const Tensor& grad_out) {
  SNNSKIP_SPAN("plif.bwd", name_);
  assert(!saved_.empty() && "Plif::backward without matching forward");
  Ctx ctx = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(ctx.bytes);

  if (!has_carry_ || grad_v_carry_.shape() != ctx.u.shape()) {
    grad_v_carry_ = Tensor(ctx.u.shape());
    has_carry_ = true;
  }

  const float w = leak_.value[0];
  const float b = sigmoid(w);
  const float dsig = b * (1.f - b);

  Tensor grad_in(ctx.u.shape());
  const std::int64_t n = ctx.u.numel();
  const float* go = grad_out.data();
  const float* uptr = ctx.u.data();
  const float* pm = ctx.prev_mem.data();
  float* carry = grad_v_carry_.data();
  float* gi = grad_in.data();
  const float theta = cfg_.threshold;
  const bool detach = cfg_.detach_reset;
  double dw = 0.0;

  for (std::int64_t i = 0; i < n; ++i) {
    const float sg = cfg_.surrogate.grad(uptr[i]);
    float dv = go[i] * sg;
    if (detach) {
      dv += carry[i];
    } else {
      dv += carry[i] * (1.f - theta * sg);
    }
    gi[i] = dv;
    dw += static_cast<double>(dv) * pm[i];  // direct w-path: V'_{t-1}
    carry[i] = b * dv;
  }
  leak_.grad[0] += static_cast<float>(dw) * dsig;
  return grad_in;
}

void Plif::reset_state() {
  has_state_ = false;
  has_carry_ = false;
  membrane_ = Tensor();
  grad_v_carry_ = Tensor();
  for (const Ctx& c : saved_) RetainedActivations::sub(c.bytes);
  saved_.clear();
}

}  // namespace snnskip
