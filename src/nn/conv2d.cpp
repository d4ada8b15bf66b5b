#include "nn/conv2d.h"

#include <cassert>
#include <cmath>

#include "parallel/parallel_for.h"
#include "telemetry/telemetry.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"

namespace snnskip {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, Rng& rng, std::string layer_name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      name_(std::move(layer_name)) {
  // Kaiming-normal for (leaky-)ReLU-like nonlinearities; surrogate-gradient
  // LIF layers behave similarly at initialization.
  const float fan_in = static_cast<float>(in_c_ * kernel_ * kernel_);
  const float stddev = std::sqrt(2.f / fan_in);
  weight_ = Parameter(
      name_ + ".weight",
      Tensor::randn(Shape{out_c_, in_c_, kernel_, kernel_}, rng, 0.f, stddev));
  bias_ = Parameter(name_ + ".bias", Tensor(Shape{out_c_}));
}

Shape Conv2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4 && in[1] == in_c_);
  const ConvGeometry g{in[1], in[2], in[3], kernel_, stride_, pad_};
  return Shape{in[0], out_c_, g.out_h(), g.out_w()};
}

std::int64_t Conv2d::macs(const Shape& in) const {
  const ConvGeometry g{in[1], in[2], in[3], kernel_, stride_, pad_};
  return in[0] * out_c_ * g.col_rows() * g.col_cols();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  assert(s[1] == in_c_ && "Conv2d: input channel mismatch");
  const std::int64_t n = s[0];
  const ConvGeometry g{s[1], s[2], s[3], kernel_, stride_, pad_};
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();

  Tensor out(Shape{n, out_c_, g.out_h(), g.out_w()});

  const std::int64_t row_len = in_c_ * s[2] * s[3];
  // In train mode the dispatch also keeps x for backward: as the events
  // when the event kernels run (the event-driven dW is bit-identical to
  // gemm_nt), densely otherwise.
  const SpikeCsr* events = dispatch_.forward(x, train);
  SNNSKIP_SPAN(events ? "conv.fwd.sparse" : "conv.fwd.dense", name_);
  if (events) {
    spike_conv2d_forward(g, *events, weight_.value.data(),
                         has_bias_ ? bias_.value.data() : nullptr, out_c_,
                         out.data(), Workspace::tls());
  } else {
    float* o = out.data();
    if (cc < kGemmTileCols) {
      // Small output (see header): one GEMM over all P = N*HoWo patches,
      // out(P, O) = rows(P, CKK) * W^T(CKK, O). At HoWo == 1 that already
      // is the (N, O) output, otherwise each image's (HoWo, O) block is
      // transposed into place.
      auto scope = Workspace::tls().scope();
      const std::int64_t p = n * cc;
      float* rows = scope.floats(static_cast<std::size_t>(p * cr));
      float* wt = scope.floats(static_cast<std::size_t>(cr * out_c_));
      for (std::int64_t img = 0; img < n; ++img) {
        im2row(g, x.data() + img * row_len, rows + img * cc * cr);
      }
      transpose_panel(weight_.value.data(), out_c_, cr, wt);
      float* pc =
          cc == 1 ? o : scope.floats(static_cast<std::size_t>(p * out_c_));
      gemm(p, out_c_, cr, 1.f, rows, wt, 0.f, pc);
      if (cc > 1) {
        for (std::int64_t img = 0; img < n; ++img) {
          transpose_panel(pc + img * cc * out_c_, cc, out_c_,
                          o + img * out_c_ * cc);
        }
      }
    } else {
      conv2d_direct_forward(g, n, x.data(), weight_.value.data(), out_c_, o,
                            Workspace::tls());
    }
    if (has_bias_) {
      for (std::int64_t plane = 0; plane < n * out_c_; ++plane) {
        const float b = bias_.value[static_cast<std::size_t>(plane % out_c_)];
        for (std::int64_t q = 0; q < cc; ++q) o[plane * cc + q] += b;
      }
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const SavedInput ctx = dispatch_.pop();
  const Shape& in_s = ctx.shape;
  const std::int64_t n = in_s[0];
  const ConvGeometry g{in_s[1], in_s[2], in_s[3], kernel_, stride_, pad_};
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();
  const std::int64_t in_img = in_s[1] * in_s[2] * in_s[3];
  const bool batched = cc < kGemmTileCols;  // small output, see header
  assert(grad_out.shape()[0] == n && grad_out.shape()[1] == out_c_);

  // dX dispatch on the gradient's density — the surrogate active set.
  const SpikeCsr* grad_events =
      input_grad_needed_ ? dispatch_.backward(grad_out) : nullptr;
  SNNSKIP_SPAN(ctx.sparse || grad_events ? "conv.bwd.sparse" : "conv.bwd.dense",
               name_);
  Workspace& ws = Workspace::tls();

  if (ctx.sparse) {
    // dW straight from the forward events (bit-identical to the gemm_nt
    // accumulation, see spike_kernels.h).
    spike_conv2d_backward_weight(g, ctx.csr, grad_out.data(), out_c_,
                                 weight_.grad.data(), ws);
  } else if (batched && cc == 1) {
    // Each image's dW partial is a single product here, so one gemm_tn over
    // K = N images (beta 1) adds them in image order, as the direct kernel
    // does. dW(O, CKK) += gO(N, O)^T * rows(N, CKK)
    auto scope = ws.scope();
    float* rows = scope.floats(static_cast<std::size_t>(n * cr));
    for (std::int64_t img = 0; img < n; ++img) {
      im2row(g, ctx.dense.data() + img * in_img, rows + img * cr);
    }
    gemm_tn(out_c_, cr, n, 1.f, grad_out.data(), rows, 1.f,
            weight_.grad.data());
  } else {
    conv2d_direct_backward_weight(g, n, ctx.dense.data(), grad_out.data(),
                                  out_c_, weight_.grad.data(), ws);
  }

  if (has_bias_) {
    // Per-channel reduction over (N, HoWo), channels partitioned across
    // the pool. Each channel keeps the old image-major scalar accumulation
    // order, so the hoisted pass is bitwise-identical to the per-image
    // loop it replaces.
    const float* gall = grad_out.data();
    float* bgrad = bias_.grad.data();
    parallel_for_range(
        0, static_cast<std::size_t>(out_c_),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t ch = b; ch < e; ++ch) {
            for (std::int64_t img = 0; img < n; ++img) {
              const float* go =
                  gall + (img * out_c_ + static_cast<std::int64_t>(ch)) * cc;
              float acc = 0.f;
              for (std::int64_t p = 0; p < cc; ++p) acc += go[p];
              bgrad[ch] += acc;
            }
          }
        });
  }

  Tensor grad_in(in_s);
  if (input_grad_needed_) {
    if (grad_events) {
      spike_conv2d_backward_input(g, *grad_events, weight_.value.data(), out_c_,
                                  grad_in.data(), ws);
    } else if (batched) {
      // drows(P, CKK) = gO^T(P, O) * W(O, CKK); at HoWo == 1 the (N, O, 1)
      // gradient already is gO^T.
      auto scope = ws.scope();
      const std::int64_t p = n * cc;
      const float* got = grad_out.data();
      if (cc > 1) {
        float* t = scope.floats(static_cast<std::size_t>(p * out_c_));
        for (std::int64_t img = 0; img < n; ++img) {
          transpose_panel(grad_out.data() + img * out_c_ * cc, out_c_, cc,
                          t + img * cc * out_c_);
        }
        got = t;
      }
      float* drows = scope.floats(static_cast<std::size_t>(p * cr));
      gemm(p, cr, out_c_, 1.f, got, weight_.value.data(), 0.f, drows);
      for (std::int64_t img = 0; img < n; ++img) {
        row2im(g, drows + img * cc * cr, grad_in.data() + img * in_img);
      }
    } else {
      conv2d_direct_backward_input(g, n, grad_out.data(), weight_.value.data(),
                                   out_c_, grad_in.data(), ws);
    }
  }
  return grad_in;
}

void Conv2d::reset_state() { dispatch_.reset(); }

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace snnskip
