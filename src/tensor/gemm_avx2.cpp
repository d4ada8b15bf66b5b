// AVX2 GEMM table. This translation unit is compiled with -mavx2
// -ffp-contract=off (see snnskip_simd_kernel_sources in src/CMakeLists.txt)
// and only added to the build when the toolchain supports -mavx2; dispatch
// reaches it through simd_ops.h tables, so a baseline x86-64 binary never
// executes these instructions unless CPUID reported AVX2.
//
// fp-contract is off so the table stays bit-identical to scalar: every
// multiply and add rounds separately, as in the scalar loops.

#if !defined(__AVX2__)
#error "gemm_avx2.cpp must be compiled with -mavx2"
#endif

#include "tensor/gemm_impl.h"
#include "tensor/simd_ops.h"

namespace snnskip::simd {

namespace {
using gemm_impl::gemm_nn_entry;
using gemm_impl::gemm_nt_entry;
using gemm_impl::gemm_tn_entry;
}  // namespace

const GemmKernels* gemm_kernels_avx2() {
  static const GemmKernels k = {&gemm_nn_entry<true>, &gemm_tn_entry<true>,
                                &gemm_nt_entry<true>};
  return &k;
}

}  // namespace snnskip::simd
