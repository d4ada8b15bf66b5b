#include "nn/pooling.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "tensor/ops.h"

namespace snnskip {

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride, bool ceil_mode)
    : kernel_(kernel), stride_(stride), ceil_mode_(ceil_mode) {}

Shape AvgPool2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4);
  const std::int64_t num_h = in[2] - kernel_;
  const std::int64_t num_w = in[3] - kernel_;
  if (ceil_mode_) {
    return Shape{in[0], in[1], (num_h + stride_ - 1) / stride_ + 1,
                 (num_w + stride_ - 1) / stride_ + 1};
  }
  return Shape{in[0], in[1], num_h / stride_ + 1, num_w / stride_ + 1};
}

Tensor AvgPool2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  const Shape os = output_shape(s);
  Tensor out(os);
  avg_pool_planes(x.data(), s[0] * s[1], s[2], s[3], kernel_, stride_, os[2],
                  os[3], out.data());
  if (train) saved_shapes_.push_back(s);
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  assert(!saved_shapes_.empty());
  Shape s = std::move(saved_shapes_.back());
  saved_shapes_.pop_back();
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const Shape os = grad_out.shape();
  const std::int64_t ho = os[2], wo = os[3];
  Tensor grad_in(s);
  for (std::int64_t i = 0; i < n * c; ++i) {
    float* gi = grad_in.data() + i * h * w;
    const float* go = grad_out.data() + i * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      const std::int64_t y_end = std::min(h, oy * stride_ + kernel_);
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        const std::int64_t x_end = std::min(w, ox * stride_ + kernel_);
        const std::int64_t count =
            (y_end - oy * stride_) * (x_end - ox * stride_);
        if (count <= 0) continue;
        const float g = go[oy * wo + ox] / static_cast<float>(count);
        for (std::int64_t y = oy * stride_; y < y_end; ++y) {
          for (std::int64_t xx = ox * stride_; xx < x_end; ++xx) {
            gi[y * w + xx] += g;
          }
        }
      }
    }
  }
  return grad_in;
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {}

Shape MaxPool2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4);
  return Shape{in[0], in[1], (in[2] - kernel_) / stride_ + 1,
               (in[3] - kernel_) / stride_ + 1};
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  const Shape os = output_shape(s);
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t ho = os[2], wo = os[3];
  Tensor out(os);
  if (!train) {
    // Eval path: no argmax bookkeeping — the index buffer only exists to
    // route gradients, so skipping it keeps the timestep loop heap-free.
    for (std::int64_t i = 0; i < n * c; ++i) {
      const float* plane = x.data() + i * h * w;
      float* optr = out.data() + i * ho * wo;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              best = std::max(best,
                              plane[(oy * stride_ + ky) * w + ox * stride_ +
                                    kx]);
            }
          }
          optr[oy * wo + ox] = best;
        }
      }
    }
    return out;
  }
  Ctx ctx;
  ctx.in_shape = s;
  ctx.argmax.resize(static_cast<std::size_t>(os.numel()));
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* plane = x.data() + i * h * w;
    float* optr = out.data() + i * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < kernel_; ++ky) {
          for (std::int64_t kx = 0; kx < kernel_; ++kx) {
            const std::int64_t idx =
                (oy * stride_ + ky) * w + ox * stride_ + kx;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        optr[oy * wo + ox] = best;
        ctx.argmax[static_cast<std::size_t>(i * ho * wo + oy * wo + ox)] =
            i * h * w + best_idx;
      }
    }
  }
  saved_.push_back(std::move(ctx));
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  assert(!saved_.empty());
  Ctx ctx = std::move(saved_.back());
  saved_.pop_back();
  Tensor grad_in(ctx.in_shape);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[static_cast<std::size_t>(
        ctx.argmax[static_cast<std::size_t>(i)])] +=
        grad_out[static_cast<std::size_t>(i)];
  }
  return grad_in;
}

Tensor GlobalAvgPool2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  const std::int64_t n = s[0], c = s[1], plane = s[2] * s[3];
  Tensor out(Shape{n, c});
  const float inv = 1.f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* p = x.data() + i * plane;
    float acc = 0.f;
    for (std::int64_t j = 0; j < plane; ++j) acc += p[j];
    out[static_cast<std::size_t>(i)] = acc * inv;
  }
  if (train) saved_shapes_.push_back(s);
  return out;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_out) {
  assert(!saved_shapes_.empty());
  Shape s = std::move(saved_shapes_.back());
  saved_shapes_.pop_back();
  const std::int64_t n = s[0], c = s[1], plane = s[2] * s[3];
  Tensor grad_in(s);
  const float inv = 1.f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float g = grad_out[static_cast<std::size_t>(i)] * inv;
    float* p = grad_in.data() + i * plane;
    for (std::int64_t j = 0; j < plane; ++j) p[j] = g;
  }
  return grad_in;
}

Shape GlobalAvgPool2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4);
  return Shape{in[0], in[1]};
}

}  // namespace snnskip
