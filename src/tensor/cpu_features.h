#pragma once
// Runtime CPU-feature detection and the process-wide SIMD level.
//
// The hot kernels (gemm, spike event kernels, packed-term kernels, the
// inference epilogues) ship in two variants per function:
//
//   Scalar   the portable register-blocked loops every x86-64 can run
//   Avx2     8-wide AVX2 with UNFUSED multiply+add, compiled with
//            -ffp-contract=off — bit-identical to the scalar path, because
//            each output element still accumulates the same products in
//            the same order and IEEE-754 ops are deterministic per element
//
// Selection happens once: SNNSKIP_SIMD=auto|scalar|avx2 is intersected
// with what the CPU supports (CPUID) and what the build compiled
// (SNNSKIP_HAVE_AVX2; the AVX2 translation units are only built when the
// toolchain accepts -mavx2). "auto" resolves to Avx2 when available.
// Per-kernel function-pointer tables index on the resolved level (see
// simd_ops.h); set_active_simd() exists for tests and benchmarks.

#include <string>

namespace snnskip {

enum class SimdLevel : int { Scalar = 0, Avx2 = 1 };

/// "scalar" / "avx2".
const char* to_string(SimdLevel level);

/// Parse "scalar"/"avx2" (case-sensitive, matching to_string).
/// "auto" and anything unrecognized return false.
bool parse_simd_level(const std::string& s, SimdLevel* out);

/// CPUID says this processor can execute AVX2 (and FMA) instructions.
/// FMA selects no kernel; cpu_signature() reports it.
bool cpu_has_avx2();
bool cpu_has_fma();

/// The build compiled the -mavx2 translation units.
bool simd_avx2_compiled();

/// Highest level this process could run: the intersection of CPU support
/// and build support. Scalar everywhere else.
SimdLevel max_simd_level();

/// The level the dispatch tables use, resolved once on first use from
/// SNNSKIP_SIMD, clamped to max_simd_level(). auto -> Avx2 when available.
SimdLevel active_simd();

/// Force a level (clamped to max_simd_level()); returns what was applied.
/// Used by tests and benchmarks; takes effect on the next kernel call.
SimdLevel set_active_simd(SimdLevel level);

/// Stable identity of this machine, stamped into benchmark rows: the CPUID
/// brand string plus the AVX2 and FMA feature bits, e.g.
/// "Intel(R) Xeon(R) CPU @ 2.10GHz|avx2=1|fma=1".
std::string cpu_signature();

}  // namespace snnskip
