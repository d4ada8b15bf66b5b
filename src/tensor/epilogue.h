#pragma once
// SIMD-dispatched inference epilogues. The compiled engine (src/infer)
// fuses BN folding + bias + LIF/PLIF (or ReLU) into one pass over each
// accumulator, vectorized per the active SIMD level. The row kernels
// read (O, P) rows: dense dispatch, depthwise, Neuron ops and ReLU
// epilogues. A packed conv's LIF epilogue reads its (P, O) event panel
// directly through lif_epilogue_panel, which transposes in registers.
// Refractory neurons keep the engine's scalar loop.
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

/// lif_epilogue_row over every channel of a (p, o_c) accumulator panel
/// (row j holds output pixel j's o_c channels), writing the (o_c, p)
/// membrane `m`, dense mirror `dst` and bits `wbits` (bit o * p + j):
/// element (o, j) takes acc[j * o_c + o], scale[o] (no scale when null)
/// and bias[o] through the row kernel's exact arithmetic, so the result
/// is bitwise that of a transpose and one row call per channel. Returns
/// the spike count. The int32 overload converts each accumulator exactly
/// on load (int8 plans).
std::int64_t lif_epilogue_panel(std::int64_t p, std::int64_t o_c,
                                const float* acc, const float* scale,
                                const float* bias, float beta, float theta,
                                float* m, float* dst, std::uint64_t* wbits);
std::int64_t lif_epilogue_panel(std::int64_t p, std::int64_t o_c,
                                const std::int32_t* acc, const float* scale,
                                const float* bias, float beta, float theta,
                                float* m, float* dst, std::uint64_t* wbits);

/// Fused affine(+ReLU) epilogue over one contiguous row:
///   in = (use_scale ? scale * acc[j] : acc[j]) + bias
///   dst[j] = relu ? (in > 0 ? in : 0) : in
void affine_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                         float scale, float bias, int relu, float* dst);

}  // namespace snnskip
