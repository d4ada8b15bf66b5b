#pragma once
// im2col / col2im lowering for 2-D convolution.
//
// For one image of shape (C, H, W), a KxK convolution with stride S and
// padding P produces output (C_out, Ho, Wo). im2col unrolls every receptive
// field into a column of the matrix `cols` with layout
//   (C * K * K, Ho * Wo)
// so that conv = weight(C_out, C*K*K) x cols. col2im is the exact adjoint
// (scatter-add), used for the input-gradient in the backward pass. im2row
// and row2im are the same pair on the transposed, patch-major layout.

#include <cstdint>

namespace snnskip {

struct ConvGeometry {
  std::int64_t in_c, in_h, in_w;
  std::int64_t kernel, stride, pad;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  std::int64_t col_rows() const { return in_c * kernel * kernel; }
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

/// Unroll one image `img` (C*H*W floats) into `cols` (col_rows x col_cols).
void im2col(const ConvGeometry& g, const float* img, float* cols);

/// Transposed unroll: `rows` has layout (col_cols x col_rows) — one
/// contiguous receptive-field patch per output pixel. It serves outputs of
/// only a handful of pixels, where gemm's 16-column microkernel degrades
/// to scalar edge loops: the inference engine pairs it with gemm_nt
/// (weight rows x patch rows), and the training Conv2d stacks every
/// image's patch rows into one gemm against the transposed weight. Same
/// element values as im2col, just the (row, pixel) transpose.
void im2row(const ConvGeometry& g, const float* img, float* rows);

/// Adjoint of im2col: accumulate `cols` back into `img` (must be zeroed by
/// the caller if a fresh gradient is wanted).
void col2im(const ConvGeometry& g, const float* cols, float* img);

/// Adjoint of im2row: accumulate patch-major `rows` (col_cols x col_rows)
/// back into `img`, adding to each pixel in col2im's order, so the two are
/// bitwise equal on the same values.
void row2im(const ConvGeometry& g, const float* rows, float* img);

}  // namespace snnskip
