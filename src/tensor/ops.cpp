#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace snnskip {

Tensor add(const Tensor& a, const Tensor& b) {
  assert(a.shape() == b.shape());
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor concat_channels(const std::vector<const Tensor*>& inputs) {
  assert(!inputs.empty());
  const Shape& s0 = inputs[0]->shape();
  assert(s0.ndim() == 4);
  const std::int64_t n = s0[0], h = s0[2], w = s0[3];
  std::int64_t c_total = 0;
  for (const Tensor* t : inputs) {
    assert(t->shape().ndim() == 4);
    assert(t->shape()[0] == n && t->shape()[2] == h && t->shape()[3] == w);
    c_total += t->shape()[1];
  }
  Tensor out(Shape{n, c_total, h, w});
  const std::int64_t plane = h * w;
  for (std::int64_t img = 0; img < n; ++img) {
    std::int64_t c_off = 0;
    for (const Tensor* t : inputs) {
      const std::int64_t c = t->shape()[1];
      const float* src = t->data() + img * c * plane;
      float* dst = out.data() + (img * c_total + c_off) * plane;
      std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(c * plane));
      c_off += c;
    }
  }
  return out;
}

Tensor slice_channels(const Tensor& x, std::int64_t c0, std::int64_t c1) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  assert(0 <= c0 && c0 <= c1 && c1 <= s[1]);
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t cs = c1 - c0;
  Tensor out(Shape{n, cs, h, w});
  const std::int64_t plane = h * w;
  for (std::int64_t img = 0; img < n; ++img) {
    const float* src = x.data() + (img * c + c0) * plane;
    float* dst = out.data() + img * cs * plane;
    std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(cs * plane));
  }
  return out;
}

Tensor gather_channels(const Tensor& x, const std::vector<std::int64_t>& idx) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  const std::int64_t cs = static_cast<std::int64_t>(idx.size());
  Tensor out(Shape{n, cs, h, w});
  const std::int64_t plane = h * w;
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t k = 0; k < cs; ++k) {
      assert(idx[static_cast<std::size_t>(k)] >= 0 &&
             idx[static_cast<std::size_t>(k)] < c);
      const float* src =
          x.data() + (img * c + idx[static_cast<std::size_t>(k)]) * plane;
      float* dst = out.data() + (img * cs + k) * plane;
      std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(plane));
    }
  }
  return out;
}

void scatter_add_channels(Tensor& acc, const Tensor& grad,
                          const std::vector<std::int64_t>& idx) {
  const Shape& s = acc.shape();
  assert(s.ndim() == 4 && grad.shape().ndim() == 4);
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  assert(grad.shape()[0] == n && grad.shape()[2] == h && grad.shape()[3] == w);
  assert(grad.shape()[1] == static_cast<std::int64_t>(idx.size()));
  const std::int64_t plane = h * w;
  const std::int64_t cs = grad.shape()[1];
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t k = 0; k < cs; ++k) {
      const float* src = grad.data() + (img * cs + k) * plane;
      float* dst =
          acc.data() + (img * c + idx[static_cast<std::size_t>(k)]) * plane;
      for (std::int64_t p = 0; p < plane; ++p) dst[p] += src[p];
    }
  }
}

Tensor softmax(const Tensor& logits) {
  const Shape& s = logits.shape();
  assert(s.ndim() == 2);
  const std::int64_t n = s[0], c = s[1];
  Tensor out(s);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* orow = out.data() + i * c;
    float m = row[0];
    for (std::int64_t j = 1; j < c; ++j) m = std::max(m, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - m);
      denom += orow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  const Shape& s = logits.shape();
  assert(s.ndim() == 2);
  const std::int64_t n = s[0], c = s[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor pad2d(const Tensor& x, std::int64_t pad) {
  if (pad == 0) return x;
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  const std::int64_t n = s[0], c = s[1], h = s[2], w = s[3];
  Tensor out(Shape{n, c, h + 2 * pad, w + 2 * pad});
  const std::int64_t wo = w + 2 * pad;
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = x.data() + (img * c + ch) * h * w;
      float* dst = out.data() + (img * c + ch) * (h + 2 * pad) * wo;
      for (std::int64_t row = 0; row < h; ++row) {
        std::memcpy(dst + (row + pad) * wo + pad, src + row * w,
                    sizeof(float) * static_cast<std::size_t>(w));
      }
    }
  }
  return out;
}

Tensor unpad2d(const Tensor& x, std::int64_t pad) {
  if (pad == 0) return x;
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  const std::int64_t n = s[0], c = s[1], hp = s[2], wp = s[3];
  const std::int64_t h = hp - 2 * pad, w = wp - 2 * pad;
  assert(h > 0 && w > 0);
  Tensor out(Shape{n, c, h, w});
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = x.data() + (img * c + ch) * hp * wp;
      float* dst = out.data() + (img * c + ch) * h * w;
      for (std::int64_t row = 0; row < h; ++row) {
        std::memcpy(dst + row * w, src + (row + pad) * wp + pad,
                    sizeof(float) * static_cast<std::size_t>(w));
      }
    }
  }
  return out;
}

void avg_pool_planes(const float* src, std::int64_t planes, std::int64_t h,
                     std::int64_t w, std::int64_t kernel, std::int64_t stride,
                     std::int64_t ho, std::int64_t wo, float* dst) {
  for (std::int64_t i = 0; i < planes; ++i) {
    const float* plane = src + i * h * w;
    float* optr = dst + i * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      const std::int64_t y_end = std::min(h, oy * stride + kernel);
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        const std::int64_t x_end = std::min(w, ox * stride + kernel);
        float acc = 0.f;
        std::int64_t count = 0;
        for (std::int64_t y = oy * stride; y < y_end; ++y) {
          for (std::int64_t xx = ox * stride; xx < x_end; ++xx) {
            acc += plane[y * w + xx];
            ++count;
          }
        }
        optr[oy * wo + ox] = count ? acc / static_cast<float>(count) : 0.f;
      }
    }
  }
}

}  // namespace snnskip
