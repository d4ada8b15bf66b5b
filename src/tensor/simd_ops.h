#pragma once
// Internal per-kernel function-pointer tables behind the runtime SIMD
// dispatch. Public code never includes this; the public entry points in
// gemm.h / spike_kernels.h / spike_packed.h / epilogue.h pick a table
// from active_simd() and jump through it.
//
// Layout: one table per SimdLevel per subsystem. The AVX2 tables are
// defined in the -mavx2 translation units (gemm_avx2.cpp, simd_avx2.cpp,
// quant_avx2.cpp) and only when SNNSKIP_HAVE_AVX2 is set; otherwise the
// accessors alias the scalar tables so dispatch never needs a null check.

#include <cstdint>

#include "tensor/cpu_features.h"
#include "tensor/im2col.h"
#include "tensor/spike_csr.h"
#include "tensor/workspace.h"

namespace snnskip::simd {

// ---- GEMM ------------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C. The register tile and K panel
/// are compile-time constants of the drivers in gemm_impl.h.
using GemmFn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                        float alpha, const float* a, const float* b,
                        float beta, float* c);

struct GemmKernels {
  GemmFn nn;
  GemmFn tn;
  GemmFn nt;
};

const GemmKernels* gemm_kernels_scalar();
const GemmKernels* gemm_kernels_avx2();

inline const GemmKernels* gemm_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2: return gemm_kernels_avx2();
    case SimdLevel::Scalar: break;
  }
  return gemm_kernels_scalar();
}

// ---- Spike / packed / transpose / epilogue / direct conv kernels ----------

struct SpikeKernels {
  void (*conv2d_forward)(const ConvGeometry&, const SpikeCsr&, const float*,
                         const float*, std::int64_t, float*, Workspace&);
  void (*linear_forward)(const SpikeCsr&, const float*, const float*,
                         std::int64_t, float*, Workspace&);
  void (*depthwise_forward)(const ConvGeometry&, const SpikeCsr&,
                            const float*, const float*, float*);
  void (*conv2d_backward_weight)(const ConvGeometry&, const SpikeCsr&,
                                 const float*, std::int64_t, float*,
                                 Workspace&);
  void (*conv2d_backward_input)(const ConvGeometry&, const SpikeCsr&,
                                const float*, std::int64_t, float*,
                                Workspace&);
  void (*linear_backward_weight)(const SpikeCsr&, const float*, std::int64_t,
                                 float*, Workspace&);
  void (*linear_backward_input)(const SpikeCsr&, const float*, std::int64_t,
                                float*);
  void (*depthwise_backward_weight)(const ConvGeometry&, const SpikeCsr&,
                                    const float*, float*);
  void (*transpose)(const float*, std::int64_t, std::int64_t, float*);
  void (*transpose_add)(const float*, std::int64_t, std::int64_t, float*);
  std::int64_t (*count_nonzero)(const float*, std::int64_t);
  std::int64_t (*packed_conv2d_term)(const ConvGeometry&, const std::int32_t*,
                                     std::int64_t, const std::uint64_t*,
                                     const std::int32_t*, const float*,
                                     std::int64_t, float*);
  std::int64_t (*packed_depthwise_term)(const ConvGeometry&,
                                        const std::int32_t*, std::int64_t,
                                        const std::uint64_t*,
                                        const std::int32_t*, const float*,
                                        float*);
  std::int64_t (*lif_row)(std::int64_t p, const float* acc, int use_scale,
                          float scale, float bias, float beta, float theta,
                          float* m, float* dst, std::uint64_t* wbits,
                          std::int64_t bit0);
  std::int64_t (*lif_panel)(std::int64_t p, std::int64_t o_c,
                            const float* acc, const float* scale,
                            const float* bias, float beta, float theta,
                            float* m, float* dst, std::uint64_t* wbits);
  std::int64_t (*lif_panel_i32)(std::int64_t p, std::int64_t o_c,
                                const std::int32_t* acc, const float* scale,
                                const float* bias, float beta, float theta,
                                float* m, float* dst, std::uint64_t* wbits);
  void (*affine_row)(std::int64_t p, const float* acc, int use_scale,
                     float scale, float bias, int relu, float* dst);
  // Dense direct convolution (tensor/conv_direct.h).
  void (*conv2d_direct_forward)(const ConvGeometry&, std::int64_t,
                                const float*, const float*, std::int64_t,
                                float*, Workspace&);
  void (*conv2d_direct_backward_input)(const ConvGeometry&, std::int64_t,
                                       const float*, const float*,
                                       std::int64_t, float*, Workspace&);
  void (*conv2d_direct_backward_weight)(const ConvGeometry&, std::int64_t,
                                        const float*, const float*,
                                        std::int64_t, float*, Workspace&);
};

const SpikeKernels* spike_kernels_scalar();
const SpikeKernels* spike_kernels_avx2();

inline const SpikeKernels* spike_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2: return spike_kernels_avx2();
    case SimdLevel::Scalar: break;
  }
  return spike_kernels_scalar();
}

inline const SpikeKernels& spike_ops() {
  return *spike_kernels_for(active_simd());
}

// ---- Int8 quantized kernels ------------------------------------------------
// Integer arithmetic, so the AVX2 table is bit-identical to scalar like
// the float tables above.

struct QuantKernels {
  void (*quantize_row)(std::int64_t n, const float* src, float inv,
                       std::int8_t* dst);
  void (*i32_to_f32)(std::int64_t n, const std::int32_t* src, float* dst);
  void (*gemm_s8s32_nt)(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c);
  std::int64_t (*packed_conv2d_term_i8)(const ConvGeometry&,
                                        const std::int32_t*, std::int64_t,
                                        const std::uint64_t*,
                                        const std::int32_t*,
                                        const std::int8_t*, std::int64_t,
                                        std::int32_t*);
  std::int64_t (*packed_depthwise_term_i8)(const ConvGeometry&,
                                           const std::int32_t*, std::int64_t,
                                           const std::uint64_t*,
                                           const std::int32_t*,
                                           const std::int8_t*, std::int32_t*);
};

const QuantKernels* quant_kernels_scalar();
const QuantKernels* quant_kernels_avx2();

inline const QuantKernels* quant_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2: return quant_kernels_avx2();
    case SimdLevel::Scalar: break;
  }
  return quant_kernels_scalar();
}

inline const QuantKernels& quant_ops() {
  return *quant_kernels_for(active_simd());
}

}  // namespace snnskip::simd
