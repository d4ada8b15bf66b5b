#pragma once
// im2col-style lowering for 2-D convolution, and the geometry every conv
// kernel shares.
//
// For one image of shape (C, H, W), a KxK convolution with stride S and
// padding P produces output (C_out, Ho, Wo). im2col unrolls every receptive
// field into a column of the matrix `cols` with layout
//   (C * K * K, Ho * Wo)
// so that conv = weight(C_out, C*K*K) x cols; the inference engine's dense
// ops lower that way. im2row is the transposed, patch-major unroll and
// row2im its adjoint (scatter-add), which the training Conv2d uses for
// outputs below gemm's tile width. Larger training convs run the direct
// kernels of tensor/conv_direct.h instead, which reproduce this lowering's
// sums bit for bit without materializing the column matrix.

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
/// to edge loops: the inference engine pairs it with gemm_nt (weight rows
/// x patch rows), and the training Conv2d stacks every image's patch rows
/// into one gemm against the transposed weight. Same element values as
/// im2col, just the (row, pixel) transpose.
void im2row(const ConvGeometry& g, const float* img, float* rows);

/// Adjoint of im2row: accumulate patch-major `rows` (col_cols x col_rows)
/// back into `img` (zeroed by the caller for a fresh gradient). Each input
/// pixel receives its terms in ascending (c, ky, kx) kernel-row order, the
/// order the direct dX kernel and the event-driven dX scatter also use.
void row2im(const ConvGeometry& g, const float* rows, float* img);

}  // namespace snnskip
