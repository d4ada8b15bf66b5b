#include "nn/linear.h"

#include <cassert>
#include <cmath>

#include "telemetry/telemetry.h"
#include "tensor/gemm.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"

namespace snnskip {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng, std::string layer_name)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      name_(std::move(layer_name)) {
  const float stddev = std::sqrt(2.f / static_cast<float>(in_f_));
  weight_ = Parameter(name_ + ".weight",
                      Tensor::randn(Shape{out_f_, in_f_}, rng, 0.f, stddev));
  bias_ = Parameter(name_ + ".bias", Tensor(Shape{out_f_}));
}

Shape Linear::output_shape(const Shape& in) const {
  assert(in.ndim() == 2 && in[1] == in_f_);
  return Shape{in[0], out_f_};
}

std::int64_t Linear::macs(const Shape& in) const {
  return in[0] * in_f_ * out_f_;
}

Tensor Linear::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 2 && s[1] == in_f_);
  const std::int64_t n = s[0];
  Tensor out(Shape{n, out_f_});

  const SpikeCsr* events = dispatch_.forward(x, train);
  SNNSKIP_SPAN(events ? "linear.fwd.sparse" : "linear.fwd.dense", name_);
  if (events) {
    // Event-driven path: per active input feature, one axpy of the
    // corresponding (transposed) weight column.
    spike_linear_forward(*events, weight_.value.data(),
                         has_bias_ ? bias_.value.data() : nullptr, out_f_,
                         out.data(), Workspace::tls());
  } else {
    // out(N, O) = x(N, I) * W(O, I)^T
    gemm_nt(n, out_f_, in_f_, 1.f, x.data(), weight_.value.data(), 0.f,
            out.data());
    if (has_bias_) {
      for (std::int64_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_f_;
        for (std::int64_t j = 0; j < out_f_; ++j) {
          row[j] += bias_.value[static_cast<std::size_t>(j)];
        }
      }
    }
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const SavedInput ctx = dispatch_.pop();
  const std::int64_t n = ctx.shape[0];
  assert(grad_out.shape()[0] == n && grad_out.shape()[1] == out_f_);

  const SpikeCsr* grad_events = dispatch_.backward(grad_out);
  SNNSKIP_SPAN(
      ctx.sparse || grad_events ? "linear.bwd.sparse" : "linear.bwd.dense",
      name_);

  if (ctx.sparse) {
    spike_linear_backward_weight(ctx.csr, grad_out.data(), out_f_,
                                 weight_.grad.data(), Workspace::tls());
  } else {
    // dW(O, I) += gO(N, O)^T * x(N, I)
    gemm_tn(out_f_, in_f_, n, 1.f, grad_out.data(), ctx.dense.data(), 1.f,
            weight_.grad.data());
  }
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_f_;
      for (std::int64_t j = 0; j < out_f_; ++j) {
        bias_.grad[static_cast<std::size_t>(j)] += row[j];
      }
    }
  }
  Tensor grad_in(Shape{n, in_f_});
  if (grad_events) {
    spike_linear_backward_input(*grad_events, weight_.value.data(), in_f_,
                                grad_in.data());
  } else {
    // dX(N, I) = gO(N, O) * W(O, I)
    gemm(n, in_f_, out_f_, 1.f, grad_out.data(), weight_.value.data(), 0.f,
         grad_in.data());
  }
  return grad_in;
}

void Linear::reset_state() { dispatch_.reset(); }

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() >= 2);
  if (train) saved_shapes_.push_back(s);
  return x.reshape(output_shape(s));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  assert(!saved_shapes_.empty());
  Shape s = std::move(saved_shapes_.back());
  saved_shapes_.pop_back();
  return grad_out.reshape(std::move(s));
}

Shape Flatten::output_shape(const Shape& in) const {
  std::int64_t rest = 1;
  for (std::size_t i = 1; i < in.ndim(); ++i) rest *= in[i];
  return Shape{in[0], rest};
}

}  // namespace snnskip
