// AVX2 spike/packed/transpose/epilogue/direct-conv table. Compiled with
// -mavx2 -ffp-contract=off (snnskip_simd_kernel_sources) and only when the
// toolchain supports -mavx2; fp-contract stays off so the table remains
// bit-identical to scalar.

#if !defined(__AVX2__)
#error "simd_avx2.cpp must be compiled with -mavx2"
#endif

#include "tensor/simd_ops.h"
#include "tensor/spike_kernels_impl.h"

namespace snnskip::simd {

const SpikeKernels* spike_kernels_avx2() {
  static const SpikeKernels k = spike_impl::make_spike_table<true>();
  return &k;
}

}  // namespace snnskip::simd
