// Scalar int8 kernel table + public dispatch entries (ISSUE 10). The
// AVX2 table lives in quant_avx2.cpp (compiled -mavx2); without AVX2
// support the avx2 accessor aliases the scalar table so dispatch never
// needs a null check — same structure as spike_kernels.cpp.

#include "tensor/quant_kernels.h"

#include "tensor/quant_kernels_impl.h"
#include "tensor/simd_ops.h"

namespace snnskip {

namespace simd {

const QuantKernels* quant_kernels_scalar() {
  static const QuantKernels k = quant_impl::make_quant_table<false>();
  return &k;
}

#if !defined(SNNSKIP_HAVE_AVX2)
const QuantKernels* quant_kernels_avx2() { return quant_kernels_scalar(); }
#endif

}  // namespace simd

void quantize_int8(std::int64_t n, const float* src, float inv,
                   std::int8_t* dst) {
  simd::quant_ops().quantize_row(n, src, inv, dst);
}

void convert_i32_to_f32(std::int64_t n, const std::int32_t* src, float* dst) {
  simd::quant_ops().i32_to_f32(n, src, dst);
}

void gemm_s8s32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, const std::int8_t* b,
                   std::int32_t* c) {
  simd::quant_ops().gemm_s8s32_nt(m, n, k, a, b, c);
}

std::int64_t spike_packed_conv2d_term_i8(const ConvGeometry& g,
                                         const std::int32_t* taps,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const std::int8_t* wt,
                                         std::int64_t out_c,
                                         std::int32_t* outt) {
  return simd::quant_ops().packed_conv2d_term_i8(g, taps, src_c, words, chrow,
                                                 wt, out_c, outt);
}

std::int64_t spike_packed_depthwise_term_i8(const ConvGeometry& g,
                                            const std::int32_t* taps,
                                            std::int64_t src_c,
                                            const std::uint64_t* words,
                                            const std::int32_t* chrow,
                                            const std::int8_t* weight,
                                            std::int32_t* acc) {
  return simd::quant_ops().packed_depthwise_term_i8(g, taps, src_c, words,
                                                    chrow, weight, acc);
}

}  // namespace snnskip
