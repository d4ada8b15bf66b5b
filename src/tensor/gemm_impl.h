#pragma once
// GEMM driver + microkernel templates, instantiated once per SIMD level.
// gemm.cpp builds the scalar table from these; gemm_avx2.cpp
// re-instantiates them with UseAvx2=true under -mavx2 -ffp-contract=off.
//
// Bit-identity argument (extends DESIGN.md §5e): every output element
// accumulates exactly the products the scalar kernel forms, in the same
// ascending-p order — the AVX2 microkernel merely evaluates kNr
// independent per-element chains per instruction, and with fp-contract off
// each lane performs the identical unfused multiply-then-add. The K panel
// length only moves panel boundaries; each element's product sequence is
// unchanged, so any panel length is bit-equal.

#include <algorithm>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "parallel/parallel_for.h"
#include "tensor/gemm.h"

namespace snnskip::gemm_impl {

// C-tile [i0, i0+Mr) x [j0, j0+Nr) += alpha * A-panel * B-panel; the A
// value for logical row i at depth p comes from arow(p, i). C already
// holds beta-scaled values. The all-Mr-zero test keeps the historic
// spike-skip: when every A operand in the column block is zero (common
// for spike matrices) the B row is never touched.
template <int Mr, int Nr, typename ARow>
inline void micro_scalar(std::int64_t n, std::int64_t j0, float alpha,
                         ARow&& arow, const float* b, std::int64_t kk,
                         std::int64_t kend, float* c, std::int64_t i0) {
  float acc[Mr][Nr];
  for (int r = 0; r < Mr; ++r) {
    const float* crow = c + (i0 + r) * n + j0;
    for (int j = 0; j < Nr; ++j) acc[r][j] = crow[j];
  }
  for (std::int64_t p = kk; p < kend; ++p) {
    float a[Mr];
    bool all_zero = true;
    for (int r = 0; r < Mr; ++r) {
      a[r] = alpha * arow(p, i0 + r);
      all_zero = all_zero && a[r] == 0.f;
    }
    if (all_zero) continue;
    const float* brow = b + p * n + j0;
    for (int j = 0; j < Nr; ++j) {
      const float bv = brow[j];
      for (int r = 0; r < Mr; ++r) acc[r][j] += a[r] * bv;
    }
  }
  for (int r = 0; r < Mr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (int j = 0; j < Nr; ++j) crow[j] = acc[r][j];
  }
}

#if defined(__AVX2__)

// AVX2 twin: Mr rows x (Nr/8) YMM column vectors of per-element chains.
// Issues mul+add, bit-identical to micro_scalar under -ffp-contract=off.
template <int Mr, int NrVec, typename ARow>
inline void micro_avx2(std::int64_t n, std::int64_t j0, float alpha,
                       ARow&& arow, const float* b, std::int64_t kk,
                       std::int64_t kend, float* c, std::int64_t i0) {
  __m256 acc[Mr][NrVec];
  for (int r = 0; r < Mr; ++r) {
    const float* crow = c + (i0 + r) * n + j0;
    for (int v = 0; v < NrVec; ++v) acc[r][v] = _mm256_loadu_ps(crow + 8 * v);
  }
  for (std::int64_t p = kk; p < kend; ++p) {
    float a[Mr];
    bool all_zero = true;
    for (int r = 0; r < Mr; ++r) {
      a[r] = alpha * arow(p, i0 + r);
      all_zero = all_zero && a[r] == 0.f;
    }
    if (all_zero) continue;
    const float* brow = b + p * n + j0;
    __m256 bv[NrVec];
    for (int v = 0; v < NrVec; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
    for (int r = 0; r < Mr; ++r) {
      const __m256 av = _mm256_set1_ps(a[r]);
      for (int v = 0; v < NrVec; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < Mr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (int v = 0; v < NrVec; ++v) _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
  }
}

#endif  // __AVX2__

// Edge tile (fewer than Mr rows or Nr cols): plain loops, per-row skip.
template <typename ARow>
inline void micro_edge(std::int64_t n, std::int64_t j0, std::int64_t nr,
                       float alpha, ARow&& arow, const float* b,
                       std::int64_t kk, std::int64_t kend, float* c,
                       std::int64_t i0, std::int64_t mr) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t p = kk; p < kend; ++p) {
      const float av = alpha * arow(p, i0 + r);
      if (av == 0.f) continue;
      const float* brow = b + p * n + j0;
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += av * brow[j];
    }
  }
}

// Full Mr x Nr register tile at the active SIMD level (Nr a multiple of 8).
template <bool UseAvx2, int Mr, int Nr, typename ARow>
inline void micro_tile(std::int64_t n, std::int64_t j0, float alpha,
                       ARow&& arow, const float* b, std::int64_t kk,
                       std::int64_t kend, float* c, std::int64_t i0) {
#if defined(__AVX2__)
  if constexpr (UseAvx2) {
    micro_avx2<Mr, Nr / 8>(n, j0, alpha, arow, b, kk, kend, c, i0);
    return;
  }
#else
  static_assert(!UseAvx2, "AVX2 instantiation in a non-AVX2 translation unit");
#endif
  micro_scalar<Mr, Nr>(n, j0, alpha, arow, b, kk, kend, c, i0);
}

inline void scale_rows(std::int64_t n, float beta, float* c, std::int64_t i0,
                       std::int64_t mr) {
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + (i0 + r) * n;
    if (beta == 0.f) {
      std::fill(crow, crow + n, 0.f);
    } else if (beta != 1.f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// Shared driver for gemm / gemm_tn: parallelize over kMr-row blocks, then
// sweep kKc-length K panels x kNr-column tiles with the register
// microkernel. The 4x16 tile keeps 4*2 accumulators + 2 B vectors + 1
// broadcast within the 16 YMM registers; a column remainder of 8-15 runs
// one 4x8 tile before the edge loop takes the last 0-7 columns.
template <bool UseAvx2, typename ARow>
void drive(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           ARow&& arow, const float* b, float beta, float* c) {
  constexpr int kMr = 4;
  constexpr int kNr = static_cast<int>(kGemmTileCols);
  constexpr std::int64_t kKc = 128;
  const std::int64_t row_blocks = (m + kMr - 1) / kMr;
  parallel_for_range(0, static_cast<std::size_t>(row_blocks),
                     [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * kMr;
      const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
      scale_rows(n, beta, c, i0, mr);
      for (std::int64_t kk = 0; kk < k; kk += kKc) {
        const std::int64_t kend = std::min(k, kk + kKc);
        std::int64_t j0 = 0;
        if (mr == kMr) {
          for (; j0 + kNr <= n; j0 += kNr) {
            micro_tile<UseAvx2, kMr, kNr>(n, j0, alpha, arow, b, kk, kend, c,
                                          i0);
          }
          if (j0 + 8 <= n) {
            micro_tile<UseAvx2, kMr, 8>(n, j0, alpha, arow, b, kk, kend, c,
                                        i0);
            j0 += 8;
          }
        }
        if (j0 < n || mr < kMr) {
          micro_edge(n, j0, n - j0, alpha, arow, b, kk, kend, c, i0, mr);
        }
      }
    }
  });
}

// Table entry points: bind the A-access lambdas so the dispatch tables
// hold plain function pointers.
template <bool UseAvx2>
void gemm_nn_entry(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const float* b, float beta,
                   float* c) {
  drive<UseAvx2>(
      m, n, k, alpha,
      [a, k](std::int64_t p, std::int64_t i) { return a[i * k + p]; }, b,
      beta, c);
}

template <bool UseAvx2>
void gemm_tn_entry(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const float* b, float beta,
                   float* c) {
  // A is stored (K, M); logical op is A^T(M,K) * B(K,N).
  drive<UseAvx2>(
      m, n, k, alpha,
      [a, m](std::int64_t p, std::int64_t i) { return a[p * m + i]; }, b,
      beta, c);
}

// gemm_nt: row-times-row dot products, both operands contiguous in K.
// Fixed 4x4 tile (B is strided across columns; a wide tile would gather).
// The AVX2 variant vectorizes the 4 B lanes per depth step — per-lane op
// sequence identical to scalar, so it stays bit-equal.
template <bool UseAvx2>
void gemm_nt_entry(std::int64_t m, std::int64_t n, std::int64_t k,
                   float alpha, const float* a, const float* b, float beta,
                   float* c) {
  const bool accumulate = (beta != 0.f);
  constexpr std::int64_t kMr = 4;
  constexpr std::int64_t kJr = 4;
  const std::int64_t row_blocks = (m + kMr - 1) / kMr;
  parallel_for_range(0, static_cast<std::size_t>(row_blocks),
                     [&](std::size_t b0, std::size_t b1) {
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::int64_t i0 = static_cast<std::int64_t>(blk) * kMr;
      const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
      for (std::int64_t j0 = 0; j0 < n; j0 += kJr) {
        const std::int64_t jr = std::min<std::int64_t>(kJr, n - j0);
        if (mr == kMr && jr == kJr) {
          const float* a0 = a + (i0 + 0) * k;
          const float* a1 = a + (i0 + 1) * k;
          const float* a2 = a + (i0 + 2) * k;
          const float* a3 = a + (i0 + 3) * k;
          const float* bb0 = b + (j0 + 0) * k;
          const float* bb1 = b + (j0 + 1) * k;
          const float* bb2 = b + (j0 + 2) * k;
          const float* bb3 = b + (j0 + 3) * k;
          float acc[kMr][kJr] = {};
#if defined(__AVX2__)
          if constexpr (UseAvx2) {
            __m128 vacc[kMr];
            for (int r = 0; r < kMr; ++r) vacc[r] = _mm_setzero_ps();
            for (std::int64_t p = 0; p < k; ++p) {
              const __m128 bv =
                  _mm_set_ps(bb3[p], bb2[p], bb1[p], bb0[p]);
              const __m128 av0 = _mm_set1_ps(a0[p]);
              const __m128 av1 = _mm_set1_ps(a1[p]);
              const __m128 av2 = _mm_set1_ps(a2[p]);
              const __m128 av3 = _mm_set1_ps(a3[p]);
              vacc[0] = _mm_add_ps(vacc[0], _mm_mul_ps(av0, bv));
              vacc[1] = _mm_add_ps(vacc[1], _mm_mul_ps(av1, bv));
              vacc[2] = _mm_add_ps(vacc[2], _mm_mul_ps(av2, bv));
              vacc[3] = _mm_add_ps(vacc[3], _mm_mul_ps(av3, bv));
            }
            for (int r = 0; r < kMr; ++r) {
              _mm_storeu_ps(&acc[r][0], vacc[r]);
            }
          } else  // NOLINT(readability/braces) — falls through to scalar
#endif
          {
            for (std::int64_t p = 0; p < k; ++p) {
              const float b0v = bb0[p], b1v = bb1[p], b2v = bb2[p],
                          b3v = bb3[p];
              const float a0v = a0[p], a1v = a1[p], a2v = a2[p],
                          a3v = a3[p];
              acc[0][0] += a0v * b0v;
              acc[0][1] += a0v * b1v;
              acc[0][2] += a0v * b2v;
              acc[0][3] += a0v * b3v;
              acc[1][0] += a1v * b0v;
              acc[1][1] += a1v * b1v;
              acc[1][2] += a1v * b2v;
              acc[1][3] += a1v * b3v;
              acc[2][0] += a2v * b0v;
              acc[2][1] += a2v * b1v;
              acc[2][2] += a2v * b2v;
              acc[2][3] += a2v * b3v;
              acc[3][0] += a3v * b0v;
              acc[3][1] += a3v * b1v;
              acc[3][2] += a3v * b2v;
              acc[3][3] += a3v * b3v;
            }
          }
          // beta handling hoisted out of the accumulation loop entirely:
          // one branch per tile, branch-free stores.
          for (std::int64_t r = 0; r < kMr; ++r) {
            float* crow = c + (i0 + r) * n + j0;
            if (accumulate) {
              for (std::int64_t j = 0; j < kJr; ++j) {
                crow[j] = alpha * acc[r][j] + beta * crow[j];
              }
            } else {
              for (std::int64_t j = 0; j < kJr; ++j) {
                crow[j] = alpha * acc[r][j];
              }
            }
          }
        } else {
          for (std::int64_t r = 0; r < mr; ++r) {
            const float* arow = a + (i0 + r) * k;
            float* crow = c + (i0 + r) * n;
            for (std::int64_t j = j0; j < j0 + jr; ++j) {
              const float* brow = b + j * k;
              float acc = 0.f;
              for (std::int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
              crow[j] = accumulate ? alpha * acc + beta * crow[j]
                                   : alpha * acc;
            }
          }
        }
      }
    }
  });
}

}  // namespace snnskip::gemm_impl
