#pragma once
// Public entry points for the int8 quantized kernels (ISSUE 10). Thin
// dispatch wrappers over the per-SIMD-level tables in simd_ops.h — the
// same pattern as spike_packed.h / gemm.h. All kernels are bit-identical
// across SIMD levels (integer accumulation; the quantize edge preserves
// the scalar per-lane float sequence), so SNNSKIP_SIMD never changes an
// int8 plan's outputs.
//
// Scheme recap (DESIGN.md §5k): weights are per-output-channel symmetric
// int8 (q = clamp(floor(w / S[o] + 0.5), -127, 127), S[o] from the raw
// row absmax); activations are quantized per op with one scalar step `a`
// (exactly 1.0 when every input term is binary spikes); accumulation is
// int32; dequantization happens once in the conv epilogue as
// a * S[o] * bn_scale_t[o] — so the BNTT fold costs one float vector per
// timestep instead of one weight copy per timestep.

#include <cstdint>

#include "tensor/im2col.h"

namespace snnskip {

/// dst[i] = clamp(floor(src[i] * inv + 0.5), -127, 127); `inv` is the
/// reciprocal of the quantization step (compute once per dispatch).
void quantize_int8(std::int64_t n, const float* src, float inv,
                   std::int8_t* dst);

/// Elementwise int32 -> float; dst may alias src (in-place widening of an
/// accumulator panel before the shared float epilogue).
void convert_i32_to_f32(std::int64_t n, const std::int32_t* src, float* dst);

/// c(m, n) = a(m, k) * b(n, k)^T with int8 operands and int32 output
/// (c overwritten). Row-major, shared inner dimension k.
void gemm_s8s32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, const std::int8_t* b,
                   std::int32_t* c);

/// Int8 twin of spike_packed_conv2d_term: accumulate one packed input
/// term into the transposed int32 panel `outt` ((Ho*Wo, O) rows). Same
/// contracts (tap table, chrow mapping, event order, returned accumulate
/// count).
std::int64_t spike_packed_conv2d_term_i8(const ConvGeometry& g,
                                         const std::int32_t* taps,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const std::int8_t* wt,
                                         std::int64_t out_c,
                                         std::int32_t* outt);

/// Int8 twin of spike_packed_depthwise_term ((C, Ho, Wo) int32 acc).
std::int64_t spike_packed_depthwise_term_i8(const ConvGeometry& g,
                                            const std::int32_t* taps,
                                            std::int64_t src_c,
                                            const std::uint64_t* words,
                                            const std::int32_t* chrow,
                                            const std::int8_t* weight,
                                            std::int32_t* acc);

}  // namespace snnskip
