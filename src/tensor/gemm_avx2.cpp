// AVX2 GEMM tables (ISSUE 9). This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off (see snnskip_simd_kernel_sources in
// src/CMakeLists.txt) and only added to the build when the toolchain
// supports those flags; dispatch reaches it through simd_ops.h tables, so
// a baseline x86-64 binary never executes these instructions unless
// CPUID reported AVX2.
//
// fp-contract is off so the UNFUSED (Avx2) table stays bit-identical to
// scalar — the compiler must not quietly fuse our mul+add back into FMA.
// The Avx2Fma table uses explicit _mm256_fmadd intrinsics instead.

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
  static const GemmKernels k = {&gemm_nn_entry<true, false>,
                                &gemm_tn_entry<true, false>,
                                &gemm_nt_entry<true, false>};
  return &k;
}

const GemmKernels* gemm_kernels_avx2fma() {
  static const GemmKernels k = {&gemm_nn_entry<true, true>,
                                &gemm_tn_entry<true, true>,
                                &gemm_nt_entry<true, true>};
  return &k;
}

}  // namespace snnskip::simd
