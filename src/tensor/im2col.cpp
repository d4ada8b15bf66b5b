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

namespace {

// Scatter-add of one image's (CKK, HoWo) values, element (row, pixel) read
// at src[row * row_stride + pixel * pixel_stride]: kernel row ascending,
// then output pixel ascending. Each input pixel receives at most one term
// per kernel row, so this fixes every pixel's add order — col2im and
// row2im share it.
void scatter_add(const ConvGeometry& g, const float* src,
                 std::int64_t row_stride, std::int64_t pixel_stride,
                 float* img) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = src + row * row_stride;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += in_row[(oy * wo + ox) * pixel_stride];
          }
        }
      }
    }
  }
}

}  // namespace

void col2im(const ConvGeometry& g, const float* cols, float* img) {
  scatter_add(g, cols, g.col_cols(), 1, img);
}

void row2im(const ConvGeometry& g, const float* rows, float* img) {
  scatter_add(g, rows, 1, g.col_rows(), img);
}

}  // namespace snnskip
