#pragma once
// Blocked single-precision GEMM kernels.
//
// Convolutions lower to GEMM via im2col, so this is the hot path of both
// the ANN and SNN forward/backward passes. The kernels are cache-blocked
// and parallelized over row panels with parallel_for; accumulation within
// a panel is sequential, so results are deterministic for any thread count.
//
//   gemm    : C = alpha * A(M,K)   * B(K,N)   + beta * C
//   gemm_tn : C = alpha * A(K,M)^T * B(K,N)   + beta * C
//   gemm_nt : C = alpha * A(M,K)   * B(N,K)^T + beta * C

#include <cstdint>

namespace snnskip {

/// Column width of gemm/gemm_tn's register tile. A product with fewer
/// output columns runs entirely in the scalar edge loop, so callers with
/// narrow outputs (deep conv stages) lower to a different operand layout.
inline constexpr std::int64_t kGemmTileCols = 16;

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b, float beta, float* c);

}  // namespace snnskip
