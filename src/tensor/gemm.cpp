#include "tensor/gemm.h"

#include "tensor/gemm_impl.h"
#include "tensor/simd_ops.h"
#include "telemetry/telemetry.h"

namespace snnskip {

namespace simd {

namespace {
using gemm_impl::gemm_nn_entry;
using gemm_impl::gemm_nt_entry;
using gemm_impl::gemm_tn_entry;
}  // namespace

const GemmKernels* gemm_kernels_scalar() {
  static const GemmKernels k = {&gemm_nn_entry<false>, &gemm_tn_entry<false>,
                                &gemm_nt_entry<false>};
  return &k;
}

#if !defined(SNNSKIP_HAVE_AVX2)
// AVX2 translation units not built (non-x86 target or the toolchain lacks
// -mavx2): alias the scalar table so dispatch never branches on a null.
const GemmKernels* gemm_kernels_avx2() { return gemm_kernels_scalar(); }
#endif

}  // namespace simd

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  // Aggregate-only: gemm runs per image (per layer call for small conv
  // outputs) every timestep, so per-call trace events would dwarf the
  // rest of the trace.
  SNNSKIP_SPAN_AGG("gemm", "gemm");
  simd::gemm_kernels_for(active_simd())->nn(m, n, k, alpha, a, b, beta, c);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  SNNSKIP_SPAN_AGG("gemm", "gemm_tn");
  simd::gemm_kernels_for(active_simd())->tn(m, n, k, alpha, a, b, beta, c);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c) {
  SNNSKIP_SPAN_AGG("gemm", "gemm_nt");
  simd::gemm_kernels_for(active_simd())->nt(m, n, k, alpha, a, b, beta, c);
}

}  // namespace snnskip
