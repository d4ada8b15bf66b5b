#pragma once
// Direct convolution for the dense training Conv2d: forward, input gradient
// and weight gradient of an (N, C, H, W) batch, for any kernel, stride and
// padding, without a (C*K*K, Ho*Wo) column matrix.
//
// Each image is read once into a zero-padded copy split by stride phase
// (tensor/conv_direct_impl.h), and register tiles of 4 rows x 16 columns
// accumulate straight from it. The kernels reproduce the products and
// their order of the im2col lowering they replace, so their results are
// bitwise those of it (and of the event kernels in spike_kernels.h):
//
//   forward  out(o, pixel) = sum over (c, ky, kx) ascending of
//            W(o, c, ky, kx) * x(c, tap pixel), from +0, as im2col + gemm
//   dX       per input pixel, ascending (ky, kx): += the tap's
//            sum over o ascending of W(o, c, ky, kx) * gO(o, pixel) from +0,
//            as gemm_tn + col2im
//   dW       per image, sum over output pixels ascending of
//            x(c, tap pixel) * gO(o, pixel) from +0, added to dW once,
//            as gemm_nt with beta 1
//
// A padding tap contributes a zero product, which adds nothing to a sum
// that starts at +0. Scalar and AVX2 tables are bit-identical, and any
// thread partition gives the same bits (chunks own disjoint outputs).
// Scratch comes from the Workspace arena.

#include <cstdint>

#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace snnskip {

/// out (N, O, Ho, Wo) = conv(x (N, C, H, W), weight (O, C, K, K)); no bias.
void conv2d_direct_forward(const ConvGeometry& g, std::int64_t n,
                           const float* x, const float* weight,
                           std::int64_t out_c, float* out, Workspace& ws);

/// Writes grad_in (N, C, H, W) from grad_out (N, O, Ho, Wo).
void conv2d_direct_backward_input(const ConvGeometry& g, std::int64_t n,
                                  const float* grad_out, const float* weight,
                                  std::int64_t out_c, float* grad_in,
                                  Workspace& ws);

/// ACCUMULATES into grad_weight (O, C, K, K), one per-image partial at a
/// time in image order.
void conv2d_direct_backward_weight(const ConvGeometry& g, std::int64_t n,
                                   const float* x, const float* grad_out,
                                   std::int64_t out_c, float* grad_weight,
                                   Workspace& ws);

}  // namespace snnskip
