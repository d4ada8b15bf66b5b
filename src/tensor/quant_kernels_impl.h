#pragma once
// Int8 kernel bodies shared by the scalar and AVX2 translation units
// (ISSUE 10). quant_kernels.cpp instantiates everything with V=false;
// quant_avx2.cpp re-instantiates with V=true under -mavx2 (fp-contract
// stays off project-wide for the SIMD TUs, but these kernels are integer
// except for the quantize/dequantize edges, whose float operation
// sequence is preserved per lane). Every kernel here is bit-identical
// across SIMD levels:
//
//   * the int32 accumulation kernels are pure integer arithmetic
//     (associative and exact), so any lane grouping gives the same sums;
//   * quantize_row rounds with floor(x * inv + 0.5) clamped to
//     [-127, 127] — _mm256_floor_ps is exact IEEE floor and the per-lane
//     multiply/add sequence matches the scalar expression, so the scalar
//     and AVX2 quantizers pick identical codes;
//   * i32_to_f32 is a single exact int->float conversion per element
//     (|acc| < 2^31 and every engine accumulator is < 2^24 ulp-exact
//     anyway for the spiking paths — see DESIGN.md §5k).
//
// The int8 GEMM deliberately avoids maddubs/dpbusd (maddubs is
// unsigned x signed with 16-bit saturation — wrong for two signed int8
// operands — and VNNI is not in the AVX2 baseline): both operands widen
// to int16 and _mm256_madd_epi16 multiplies into int32 with an exact
// pairwise add, so no intermediate can saturate. The engine bounds k so
// the int32 accumulator never wraps (asserted at max geometry by
// tests/quant_test.cpp).

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/im2col.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_packed.h"

namespace snnskip::quant_impl {

// ---- Quantize / convert edges ----------------------------------------------

/// dst[i] = clamp(floor(src[i] * inv + 0.5), -127, 127) as int8.
/// `inv` is the reciprocal of the quantization step; the caller computes
/// it ONCE per dispatch so scalar and AVX2 see the same float.
template <bool V>
inline void quantize_row(std::int64_t n, const float* __restrict src,
                         float inv, std::int8_t* __restrict dst) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 invv = _mm256_set1_ps(inv);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256i lo = _mm256_set1_epi32(-127);
    const __m256i hi = _mm256_set1_epi32(127);
    for (; i + 8 <= n; i += 8) {
      const __m256 x = _mm256_loadu_ps(src + i);
      const __m256 scaled =
          _mm256_add_ps(_mm256_mul_ps(x, invv), half);
      // floor then truncate: floor() is exact, and the floored value is
      // integral, so cvttps (truncation) reproduces the scalar
      // static_cast<int> of std::floor exactly.
      __m256i q = _mm256_cvttps_epi32(_mm256_floor_ps(scaled));
      q = _mm256_max_epi32(lo, _mm256_min_epi32(hi, q));
      // 8 x int32 -> 8 x int8: pack through int16 within the lane halves.
      const __m128i q_lo = _mm256_castsi256_si128(q);
      const __m128i q_hi = _mm256_extracti128_si256(q, 1);
      const __m128i q16 = _mm_packs_epi32(q_lo, q_hi);
      const __m128i q8 = _mm_packs_epi16(q16, q16);
      std::memcpy(dst + i, &q8, 8);
    }
  }
#endif
  for (; i < n; ++i) {
    float scaled = src[i] * inv + 0.5f;
    // Match _mm256_floor_ps semantics: floor of the scaled value.
    std::int32_t q = static_cast<std::int32_t>(std::floor(scaled));
    if (q < -127) q = -127;
    if (q > 127) q = 127;
    dst[i] = static_cast<std::int8_t>(q);
  }
}

/// In-place-safe elementwise int32 -> float conversion (dst may alias
/// src: each element is read before its slot is written).
template <bool V>
inline void i32_to_f32(std::int64_t n, const std::int32_t* src, float* dst) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    for (; i + 8 <= n; i += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_storeu_ps(dst + i, _mm256_cvtepi32_ps(v));
    }
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

// ---- Int8 accumulation primitives ------------------------------------------

/// y[0..n) += x[0..n) with x int8 widened to int32 — the packed
/// binary-spike accumulation (one weight row per event tap). Pure integer
/// adds: every SIMD level is exactly equal.
template <bool V>
inline void add_rows_i8(std::int64_t n, const std::int8_t* __restrict x,
                        std::int32_t* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    for (; i + 8 <= n; i += 8) {
      const __m128i x8 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
      const __m256i x32 = _mm256_cvtepi8_epi32(x8);
      __m256i yv = _mm256_loadu_si256(reinterpret_cast<__m256i*>(y + i));
      yv = _mm256_add_epi32(yv, x32);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), yv);
    }
  }
#endif
  for (; i < n; ++i) y[i] += x[i];
}

/// c[i, j] = sum_t a[i*k + t] * b[j*k + t], int8 x int8 -> int32, c
/// overwritten (beta = 0). Both matrices are row-major over a shared
/// inner dimension k ("nt" layout, like gemm_nt): a is (m, k), b is
/// (n, k), c is (m, n). AVX2 widens both operands to int16 and uses
/// madd_epi16 (16 products per instruction, pairwise int32 sums) — no
/// maddubs/dpbusd, so signed x signed is exact and the kernel runs on
/// the plain AVX2 baseline. Integer arithmetic: identical to scalar.
template <bool V>
void gemm_s8s32_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* __restrict a,
                   const std::int8_t* __restrict b,
                   std::int32_t* __restrict c) {
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int8_t* brow = b + j * k;
      std::int64_t t = 0;
      std::int32_t acc = 0;
#if defined(__AVX2__)
      if constexpr (V) {
        __m256i accv = _mm256_setzero_si256();
        for (; t + 16 <= k; t += 16) {
          const __m128i a8 = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(arow + t));
          const __m128i b8 = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(brow + t));
          const __m256i a16 = _mm256_cvtepi8_epi16(a8);
          const __m256i b16 = _mm256_cvtepi8_epi16(b8);
          accv = _mm256_add_epi32(accv, _mm256_madd_epi16(a16, b16));
        }
        // Horizontal reduce the 8 int32 partials.
        const __m128i lo = _mm256_castsi256_si128(accv);
        const __m128i hi = _mm256_extracti128_si256(accv, 1);
        __m128i s = _mm_add_epi32(lo, hi);
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
        acc = _mm_cvtsi128_si32(s);
      }
#endif
      for (; t < k; ++t) {
        acc += static_cast<std::int32_t>(arow[t]) *
               static_cast<std::int32_t>(brow[t]);
      }
      crow[j] = acc;
    }
  }
}

// ---- Packed-spike int8 term kernels ----------------------------------------
// Same walk as spike_impl::packed_conv2d_term / packed_depthwise_term
// (walk_packed_taps over the plan's tap table, chrow channel mapping),
// but the weight rows are int8 and the accumulator panel is int32: binary
// spikes make the event path a pure integer row-add, so the int8 packed
// dispatch is EXACT given the quantized weights (no input quantization at
// all). Returns the accumulate count (energy accounting), like the fp32
// twins.

template <bool V>
std::int64_t packed_conv2d_term_i8(const ConvGeometry& g,
                                   const std::int32_t* taps,
                                   std::int64_t src_c,
                                   const std::uint64_t* words,
                                   const std::int32_t* chrow,
                                   const std::int8_t* wt, std::int64_t out_c,
                                   std::int32_t* outt) {
  const std::int64_t kk = g.kernel * g.kernel;
  return out_c * walk_packed_taps(
                     g, taps, src_c, words, chrow,
                     [=](std::int64_t row, std::int64_t tap,
                         std::int64_t opix) {
                       add_rows_i8<V>(out_c, wt + (row * kk + tap) * out_c,
                                      outt + opix * out_c);
                     });
}

template <bool V>
std::int64_t packed_depthwise_term_i8(const ConvGeometry& g,
                                      const std::int32_t* taps,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const std::int8_t* weight,
                                      std::int32_t* acc) {
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t howo = g.out_h() * g.out_w();
  return walk_packed_taps(g, taps, src_c, words, chrow,
                          [=](std::int64_t row, std::int64_t tap,
                              std::int64_t opix) {
                            acc[row * howo + opix] += weight[row * kk + tap];
                          });
}

/// One table per V instantiation; the accessors in simd_ops.h each wrap
/// one of these in a function-local static.
template <bool V>
inline simd::QuantKernels make_quant_table() {
  return simd::QuantKernels{
      &quantize_row<V>,
      &i32_to_f32<V>,
      &gemm_s8s32_nt<V>,
      &packed_conv2d_term_i8<V>,
      &packed_depthwise_term_i8<V>,
  };
}

}  // namespace snnskip::quant_impl
