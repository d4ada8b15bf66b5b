#pragma once
// SIMD-dispatched inference epilogue rows. The compiled engine
// (src/infer) fuses BN folding + bias + LIF/PLIF (or ReLU) into one pass
// over each accumulator panel; these are the unit-stride row primitives
// behind that pass, vectorized per the active SIMD level. The engine
// transposes its packed-conv (P, O) panels to (O, P) rows first, and
// keeps a scalar loop only for refractory neurons.
//
// Bitwise contract: the Scalar and Avx2 variants produce identical bits
// (same unfused multiply/add sequence per element, lane-exact compares).

#include <cstdint>

namespace snnskip {

/// Fused LIF epilogue over one contiguous row of `p` accumulators:
///   in  = (use_scale ? scale * acc[j] : acc[j]) + bias
///   vt  = beta * m[j] + in
///   spike iff vt - theta >= 0; dst[j] = spike ? 1 : 0;
///   m[j] = spike ? vt - theta : vt (soft reset)
/// Sets bit (bit0 + j) of `wbits` for each spike and returns the spike
/// count. The caller guarantees wbits has capacity for bit0 + p bits.
/// No refractory handling — the engine falls back to its scalar loop when
/// a refractory counter is present.
std::int64_t lif_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                              float scale, float bias, float beta, float theta,
                              float* m, float* dst, std::uint64_t* wbits,
                              std::int64_t bit0);

/// Fused affine(+ReLU) epilogue over one contiguous row:
///   in = (use_scale ? scale * acc[j] : acc[j]) + bias
///   dst[j] = relu ? (in > 0 ? in : 0) : in
void affine_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                         float scale, float bias, int relu, float* dst);

}  // namespace snnskip
