#include "tensor/im2col.h"

namespace snnskip {

void im2col(const ConvGeometry& g, const float* img, float* cols) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t cc = ho * wo;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = cols + row * cc;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t ox = 0; ox < wo; ++ox) out_row[oy * wo + ox] = 0.f;
            continue;
          }
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            out_row[oy * wo + ox] =
                (ix < 0 || ix >= g.in_w) ? 0.f : plane[iy * g.in_w + ix];
          }
        }
      }
    }
  }
}

void im2row(const ConvGeometry& g, const float* img, float* rows) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t cr = g.col_rows();
  const std::int64_t hw = g.in_h * g.in_w;
  for (std::int64_t oy = 0; oy < ho; ++oy) {
    for (std::int64_t ox = 0; ox < wo; ++ox) {
      float* patch = rows + (oy * wo + ox) * cr;
      std::int64_t row = 0;
      for (std::int64_t c = 0; c < g.in_c; ++c) {
        const float* plane = img + c * hw;
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
              patch[row] = 0.f;
            }
            continue;
          }
          for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            patch[row] =
                (ix < 0 || ix >= g.in_w) ? 0.f : plane[iy * g.in_w + ix];
          }
        }
      }
    }
  }
}

void row2im(const ConvGeometry& g, const float* rows, float* img) {
  // Kernel row ascending, then output pixel ascending: each input pixel
  // receives at most one term per kernel row, which fixes its add order.
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t cr = g.col_rows();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += rows[(oy * wo + ox) * cr + row];
          }
        }
      }
    }
  }
}

}  // namespace snnskip
