#pragma once
// Event-kernel bodies shared by the scalar and AVX2 translation units.
// spike_kernels.cpp instantiates everything with V=false; simd_avx2.cpp
// re-instantiates with V=true under -mavx2 -ffp-contract=off. The kernel
// structure is byte-for-byte the historic scalar code — only the innermost
// unit-stride loops route through the vector primitives below, each of
// which preserves the scalar per-element operation sequence exactly
// (unfused multiply+add per lane), so the V=true instantiations stay
// bit-identical to V=false.
//
// Template parameter: V = use AVX2 intrinsics in the primitives.

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "parallel/parallel_for.h"
#include "tensor/conv_direct_impl.h"
#include "tensor/im2col.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_csr.h"
#include "tensor/spike_packed.h"
#include "tensor/workspace.h"

namespace snnskip::spike_impl {

// ---- Vector primitives -----------------------------------------------------

/// y[0..n) += a * x[0..n). The spike kernels' workhorse: one weight-row
/// accumulation per (event, tap). The AVX2 variant runs a 1-7 element
/// tail (O = 6 or 12 at the search's widths) as one masked vector.
template <bool V>
inline void axpy(std::int64_t n, float a, const float* __restrict x,
                 float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 av = _mm256_set1_ps(a);
    auto step = [&](__m256 xv, __m256 yv) {
      return _mm256_add_ps(yv, _mm256_mul_ps(av, xv));
    };
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, step(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
    if (i < n) {
      // Lanes below n - i are set; masked-off lanes are neither read nor
      // written.
      const __m256i mask = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(n - i)),
          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
      _mm256_maskstore_ps(y + i, mask,
                          step(_mm256_maskload_ps(x + i, mask),
                               _mm256_maskload_ps(y + i, mask)));
    }
    return;
  }
#endif
  for (; i < n; ++i) y[i] += a * x[i];
}

/// y[0..n) += x[0..n). Pure adds (the packed binary-spike accumulation).
template <bool V>
inline void add_rows(std::int64_t n, const float* __restrict x,
                     float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
  }
#endif
  for (; i < n; ++i) y[i] += x[i];
}

/// y[0..n) += a (scalar broadcast; the bias add after the output flip).
template <bool V>
inline void add_scalar(std::int64_t n, float a, float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 av = _mm256_set1_ps(a);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), av));
    }
  }
#endif
  for (; i < n; ++i) y[i] += a;
}

// ---- Cache-blocked transpose (satellite: one templated helper) -------------

#if defined(__AVX2__)
/// Transposes 8 rows of 8 floats in registers: afterwards r[i] holds
/// column i of the input rows. Shuffles only — exact.
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// 8x8 in-register transpose block: reads 8 rows of 8 at stride `scols`,
/// writes (or adds) the transpose as 8 rows at stride `dcols`. Exact
/// copies/adds — no reassociation anywhere.
template <bool Add>
inline void transpose_8x8_avx2(const float* src, std::int64_t scols,
                               float* dst, std::int64_t dcols) {
  __m256 o[8];
  for (int i = 0; i < 8; ++i) o[i] = _mm256_loadu_ps(src + i * scols);
  transpose8(o);
  for (int i = 0; i < 8; ++i) {
    float* d = dst + i * dcols;
    if constexpr (Add) {
      _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), o[i]));
    } else {
      _mm256_storeu_ps(d, o[i]);
    }
  }
}
#endif  // __AVX2__

/// Cache-blocked transpose: dst(c, r) = src(r, c) (Add=false) or
/// dst(c, r) += src(r, c) (Add=true) for src of (rows, cols). The naive
/// loop strides one full row per write and misses on every store once the
/// panel outgrows L2 (e.g. a 512x2304 conv weight); 32x32 tiles keep both
/// sides inside a handful of cache lines. Each element is touched exactly
/// once, so tiling (and the 8x8 vector block) is order-free and exact for
/// any tile size.
template <bool V, bool Add>
void transpose_tiled(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = rows < r0 + kTile ? rows : r0 + kTile;
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = cols < c0 + kTile ? cols : c0 + kTile;
      std::int64_t r = r0;
#if defined(__AVX2__)
      if constexpr (V) {
        for (; r + 8 <= r1; r += 8) {
          std::int64_t c = c0;
          for (; c + 8 <= c1; c += 8) {
            transpose_8x8_avx2<Add>(src + r * cols + c, cols,
                                    dst + c * rows + r, rows);
          }
          for (std::int64_t rr = r; rr < r + 8; ++rr) {
            const float* s = src + rr * cols;
            for (std::int64_t cc = c; cc < c1; ++cc) {
              if constexpr (Add) {
                dst[cc * rows + rr] += s[cc];
              } else {
                dst[cc * rows + rr] = s[cc];
              }
            }
          }
        }
      }
#endif
      for (; r < r1; ++r) {
        const float* s = src + r * cols;
        for (std::int64_t c = c0; c < c1; ++c) {
          if constexpr (Add) {
            dst[c * rows + r] += s[c];
          } else {
            dst[c * rows + r] = s[c];
          }
        }
      }
    }
  }
}

/// Dispatch-friendly density scan.
template <bool V>
std::int64_t count_nonzero_impl(const float* data, std::int64_t n) {
  std::int64_t i = 0;
  std::int64_t nnz = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(data + i);
      const unsigned mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)));
      nnz += std::popcount(mask);
    }
  }
#endif
  for (; i < n; ++i) nnz += (data[i] != 0.f);
  return nnz;
}

// ---- CSR event kernels (bodies: see spike_kernels.h for contracts) ---------

/// The training event kernels' shared tap walk over CSR events: the tap
/// table (fill_tap_table) is built once per call in workspace memory, and
/// TapCursor decodes each event without a division.
class TapWalk {
 public:
  TapWalk(const ConvGeometry& g, Workspace::Scope& scope)
      : g_(g), tab_(direct_impl::ints(scope, tap_table_ints(g))) {
    fill_tap_table(g, tab_);
  }

  /// Calls f(c, v, tap, opix) for each valid tap of each of one image's
  /// events, with tap = ky * K + kx and opix = oy * Wo + ox: events in
  /// order, then ky, then kx ascending.
  template <typename Fn>
  void image(const std::int32_t* idx, const float* val, std::int64_t cnt,
             Fn&& f) const {
    TapCursor cur(g_, tab_);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const std::int64_t c = cur.seek(idx[e]);
      const float v = val[e];
      cur.taps([&](std::int64_t tap, std::int64_t opix) {
        f(c, v, tap, opix);
      });
    }
  }

 private:
  ConvGeometry g_;
  std::int32_t* tab_;
};

template <bool V>
void conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                    const float* weight, const float* bias, std::int64_t out_c,
                    float* out, Workspace& ws) {
  const std::int64_t ckk = g.col_rows();
  const std::int64_t howo = g.out_h() * g.out_w();
  const std::int64_t o_c = out_c;

  auto scope = ws.scope();
  // Weight transposed to ((c,ky,kx), o) so the per-spike accumulation is a
  // unit-stride axpy of length O. Rebuilt per call: O(O*CKK) — negligible
  // next to the conv itself and immune to weight-update staleness.
  float* wt = scope.floats(static_cast<std::size_t>(ckk * o_c));
  transpose_tiled<V, false>(weight, o_c, ckk, wt);
  // Output accumulated transposed as (HoWo, O), then flipped back once.
  float* outt = scope.floats(static_cast<std::size_t>(howo * o_c));

  const TapWalk walk(g, scope);
  const std::int64_t kk = g.kernel * g.kernel;
  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    std::memset(outt, 0, static_cast<std::size_t>(howo * o_c) * sizeof(float));
    // Every kernel tap (ky,kx) that maps an input pixel onto a valid output
    // position receives one weight-row accumulation.
    walk.image(csr.row_indices(img), csr.row_values(img), csr.row_nnz(img),
               [&](std::int64_t c, float v, std::int64_t tap,
                   std::int64_t opix) {
                 axpy<V>(o_c, v, wt + (c * kk + tap) * o_c,
                         outt + opix * o_c);
               });
    // Flip (HoWo, O) back to (O, HoWo) and add the bias — exact copies
    // plus the same single add per element the row-wise loop performed.
    float* oimg = out + img * o_c * howo;
    transpose_tiled<V, false>(outt, howo, o_c, oimg);
    for (std::int64_t o = 0; o < o_c; ++o) {
      add_scalar<V>(howo, bias != nullptr ? bias[o] : 0.f, oimg + o * howo);
    }
  }
}

template <bool V>
void linear_forward(const SpikeCsr& csr, const float* weight,
                    const float* bias, std::int64_t out_f, float* out,
                    Workspace& ws) {
  const std::int64_t in_f = csr.row_len();
  auto scope = ws.scope();
  float* wt = scope.floats(static_cast<std::size_t>(in_f * out_f));
  transpose_tiled<V, false>(weight, out_f, in_f, wt);
  for (std::int64_t i = 0; i < csr.rows(); ++i) {
    float* orow = out + i * out_f;
    if (bias != nullptr) {
      std::memcpy(orow, bias, static_cast<std::size_t>(out_f) * sizeof(float));
    } else {
      std::memset(orow, 0, static_cast<std::size_t>(out_f) * sizeof(float));
    }
    const std::int32_t* idx = csr.row_indices(i);
    const float* val = csr.row_values(i);
    const std::int64_t cnt = csr.row_nnz(i);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const float* wrow = wt + static_cast<std::int64_t>(idx[e]) * out_f;
      axpy<V>(out_f, val[e], wrow, orow);
    }
  }
}

template <bool V>
void depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                       const float* weight, const float* bias, float* out) {
  const std::int64_t howo = g.out_h() * g.out_w();
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t c_ = g.in_c;
  auto scope = Workspace::tls().scope();
  const TapWalk walk(g, scope);

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    float* oimg = out + img * c_ * howo;
    for (std::int64_t ch = 0; ch < c_; ++ch) {
      const float b = bias != nullptr ? bias[ch] : 0.f;
      float* plane = oimg + ch * howo;
      for (std::int64_t j = 0; j < howo; ++j) plane[j] = b;
    }
    // K*K scattered scalar taps — no contiguous run to vectorize.
    walk.image(csr.row_indices(img), csr.row_values(img), csr.row_nnz(img),
               [&](std::int64_t c, float v, std::int64_t tap,
                   std::int64_t opix) {
                 oimg[c * howo + opix] += v * weight[c * kk + tap];
               });
  }
}

template <bool V>
void conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                            const float* grad_out, std::int64_t out_c,
                            float* grad_weight, Workspace& ws) {
  const std::int64_t ckk = g.col_rows();
  const std::int64_t howo = g.out_h() * g.out_w();
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t o_c = out_c;

  auto scope = ws.scope();
  const TapWalk walk(g, scope);
  // grad_out transposed to (HoWo, O) once per image so the per-event tap
  // loop reads a unit-stride O-slice, mirroring the forward kernel.
  float* got = scope.floats(static_cast<std::size_t>(howo * o_c));

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    transpose_tiled<V, false>(grad_out + img * o_c * howo, o_c, howo, got);
    // Each chunk owns an O-slice [ob, oe): it accumulates a private
    // (CKK, oe-ob) per-image partial from the events, then adds it into
    // its own grad_weight rows. gemm_nt computes the same per-image
    // partial (acc from +0, p ascending) before its single add, so the
    // result matches the dense path bit-for-bit for any partition.
    parallel_for_range(
        0, static_cast<std::size_t>(o_c), [&](std::size_t b, std::size_t e) {
          const std::int64_t ob = static_cast<std::int64_t>(b);
          const std::int64_t ow = static_cast<std::int64_t>(e) - ob;
          auto chunk_scope = Workspace::tls().scope();
          float* dwt = chunk_scope.floats(static_cast<std::size_t>(ckk * ow));
          std::memset(dwt, 0,
                      static_cast<std::size_t>(ckk * ow) * sizeof(float));
          walk.image(csr.row_indices(img), csr.row_values(img),
                     csr.row_nnz(img),
                     [&](std::int64_t c, float v, std::int64_t tap,
                         std::int64_t opix) {
                       axpy<V>(ow, v, got + opix * o_c + ob,
                               dwt + (c * kk + tap) * ow);
                     });
          transpose_tiled<V, true>(dwt, ckk, ow, grad_weight + ob * ckk);
        });
  }
}

template <bool V>
void conv2d_backward_input(const ConvGeometry& g, const SpikeCsr& gcsr,
                           const float* weight, std::int64_t out_c,
                           float* grad_in, Workspace& ws) {
  const std::int64_t ckk = g.col_rows();
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t in_c = g.in_c;
  (void)out_c;

  auto scope = ws.scope();
  std::int32_t* cnts = direct_impl::ints(scope, howo);
  std::int32_t* pos = direct_impl::ints(scope, howo);
  std::int32_t* astart = direct_impl::ints(scope, howo);
  // Active column j: its pixel p and the input row/column its tap (0, 0)
  // reads, oy * s - pad and ox * s - pad.
  std::int32_t* active = direct_impl::ints(scope, howo);
  std::int32_t* ay = direct_impl::ints(scope, howo);
  std::int32_t* ax = direct_impl::ints(scope, howo);

  for (std::int64_t img = 0; img < gcsr.rows(); ++img) {
    const std::int32_t* idx = gcsr.row_indices(img);
    const float* val = gcsr.row_values(img);
    const std::int64_t cnt = gcsr.row_nnz(img);
    if (cnt == 0) continue;  // dense would add only exact zeros here
    auto img_scope = ws.scope();
    // Bucket the gradient events by output column p (counting sort keeps
    // the within-column order ascending in o — gemm_tn's reduction order).
    // Events ascend, so o = flat / HoWo only ever steps forward.
    std::memset(cnts, 0, static_cast<std::size_t>(howo) * sizeof(std::int32_t));
    for (std::int64_t ev = 0, obase = 0; ev < cnt; ++ev) {
      while (idx[ev] >= obase + howo) obase += howo;
      ++cnts[idx[ev] - obase];
    }
    std::int64_t na = 0;
    std::int32_t run = 0;
    for (std::int64_t p = 0, oy = 0, ox = 0; p < howo; ++p) {
      if (cnts[p] != 0) {
        active[na] = static_cast<std::int32_t>(p);
        ay[na] = static_cast<std::int32_t>(oy * s - pad);
        ax[na] = static_cast<std::int32_t>(ox * s - pad);
        astart[na] = run;
        pos[p] = run;
        run += cnts[p];
        ++na;
      }
      if (++ox == wo) {
        ox = 0;
        ++oy;
      }
    }
    std::int32_t* bo = direct_impl::ints(img_scope, cnt);
    float* bg = img_scope.floats(static_cast<std::size_t>(cnt));
    for (std::int64_t ev = 0, o = 0, obase = 0; ev < cnt; ++ev) {
      const std::int64_t flat = idx[ev];
      while (flat >= obase + howo) {
        obase += howo;
        ++o;
      }
      const std::int32_t at = pos[flat - obase]++;
      bo[at] = static_cast<std::int32_t>(o);
      bg[at] = val[ev];
    }
    // Phase 1: materialize only the active columns of the (CKK, HoWo)
    // gradient-column matrix, compacted to (na, CKK). Each column is an
    // independent output — safe to parallelize.
    float* dcols = img_scope.floats(static_cast<std::size_t>(na * ckk));
    parallel_for_range(
        0, static_cast<std::size_t>(na), [&](std::size_t jb, std::size_t je) {
          for (std::size_t j = jb; j < je; ++j) {
            float* buf = dcols + static_cast<std::int64_t>(j) * ckk;
            std::memset(buf, 0, static_cast<std::size_t>(ckk) * sizeof(float));
            const std::int32_t b0 = astart[j];
            const std::int32_t b1 = b0 + cnts[active[j]];
            for (std::int32_t t = b0; t < b1; ++t) {
              const float* wrow =
                  weight + static_cast<std::int64_t>(bo[t]) * ckk;
              axpy<V>(ckk, bg[t], wrow, buf);
            }
          }
        });
    // Phase 2: scatter kernel row r ascending, then column p ascending —
    // each input pixel's terms in the dense dX's (c, ky, kx) order —
    // restricted to the active columns (the inactive ones hold exact +0 in
    // the dense path). Channels own disjoint planes, so the channel
    // partition is deterministic.
    float* gimg = grad_in + img * in_c * hw;
    parallel_for_range(
        0, static_cast<std::size_t>(in_c), [&](std::size_t cb, std::size_t ce) {
          for (std::size_t c = cb; c < ce; ++c) {
            float* plane = gimg + static_cast<std::int64_t>(c) * hw;
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t r =
                    (static_cast<std::int64_t>(c) * k + ky) * k + kx;
                for (std::int64_t j = 0; j < na; ++j) {
                  const std::int64_t iy = ay[j] + ky;
                  if (iy < 0 || iy >= g.in_h) continue;
                  const std::int64_t ix = ax[j] + kx;
                  if (ix < 0 || ix >= g.in_w) continue;
                  plane[iy * g.in_w + ix] += dcols[j * ckk + r];
                }
              }
            }
          }
        });
  }
}

template <bool V>
void linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                            std::int64_t out_f, float* grad_weight,
                            Workspace& ws) {
  const std::int64_t in_f = csr.row_len();
  auto scope = ws.scope();
  // Accumulate through a transposed (in_f, out_f) view so each event is a
  // unit-stride axpy of length O. gemm_tn accumulates directly onto C in
  // ascending batch-row order; the transposes are element-exact copies, so
  // accumulating onto the transposed copy in the same row order matches.
  float* wgt = scope.floats(static_cast<std::size_t>(in_f * out_f));
  transpose_tiled<V, false>(grad_weight, out_f, in_f, wgt);
  const std::int64_t rows = csr.rows();
  parallel_for_range(
      0, static_cast<std::size_t>(out_f), [&](std::size_t b, std::size_t e) {
        const std::int64_t ob = static_cast<std::int64_t>(b);
        const std::int64_t oe = static_cast<std::int64_t>(e);
        for (std::int64_t row = 0; row < rows; ++row) {
          const float* gorow = grad_out + row * out_f;
          const std::int32_t* idx = csr.row_indices(row);
          const float* val = csr.row_values(row);
          const std::int64_t cnt = csr.row_nnz(row);
          for (std::int64_t ev = 0; ev < cnt; ++ev) {
            float* wrow = wgt + static_cast<std::int64_t>(idx[ev]) * out_f;
            axpy<V>(oe - ob, val[ev], gorow + ob, wrow + ob);
          }
        }
      });
  transpose_tiled<V, false>(wgt, in_f, out_f, grad_weight);
}

template <bool V>
void linear_backward_input(const SpikeCsr& gcsr, const float* weight,
                           std::int64_t in_f, float* grad_in) {
  parallel_for_range(
      0, static_cast<std::size_t>(gcsr.rows()),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t row = b; row < e; ++row) {
          float* girow = grad_in + static_cast<std::int64_t>(row) * in_f;
          const std::int32_t* idx =
              gcsr.row_indices(static_cast<std::int64_t>(row));
          const float* val = gcsr.row_values(static_cast<std::int64_t>(row));
          const std::int64_t cnt = gcsr.row_nnz(static_cast<std::int64_t>(row));
          for (std::int64_t ev = 0; ev < cnt; ++ev) {
            const float* wrow =
                weight + static_cast<std::int64_t>(idx[ev]) * in_f;
            axpy<V>(in_f, val[ev], wrow, girow);
          }
        }
      });
}

template <bool V>
void depthwise_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                               const float* grad_out, float* grad_weight) {
  const std::int64_t howo = g.out_h() * g.out_w();
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t c_ = g.in_c;
  auto scope = Workspace::tls().scope();
  const TapWalk walk(g, scope);

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    const float* gimg = grad_out + img * c_ * howo;
    walk.image(csr.row_indices(img), csr.row_values(img), csr.row_nnz(img),
               [&](std::int64_t c, float v, std::int64_t tap,
                   std::int64_t opix) {
                 grad_weight[c * kk + tap] += gimg[c * howo + opix] * v;
               });
  }
}

// ---- Packed-spike term kernels (bodies: see spike_packed.h) ----------------

template <bool V>
std::int64_t packed_conv2d_term(const ConvGeometry& g,
                                const std::int32_t* taps, std::int64_t src_c,
                                const std::uint64_t* words,
                                const std::int32_t* chrow, const float* wt,
                                std::int64_t out_c, float* outt) {
  const std::int64_t kk = g.kernel * g.kernel;
  // Each valid tap is one contiguous out_c-length accumulation of a
  // transposed weight row — pure adds (binary spikes), so every SIMD level
  // is bit-equal.
  return out_c * walk_packed_taps(
                     g, taps, src_c, words, chrow,
                     [=](std::int64_t row, std::int64_t tap,
                         std::int64_t opix) {
                       add_rows<V>(out_c, wt + (row * kk + tap) * out_c,
                                   outt + opix * out_c);
                     });
}

template <bool V>
std::int64_t packed_depthwise_term(const ConvGeometry& g,
                                   const std::int32_t* taps,
                                   std::int64_t src_c,
                                   const std::uint64_t* words,
                                   const std::int32_t* chrow,
                                   const float* weight, float* acc) {
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t howo = g.out_h() * g.out_w();
  return walk_packed_taps(g, taps, src_c, words, chrow,
                          [=](std::int64_t row, std::int64_t tap,
                              std::int64_t opix) {
                            acc[row * howo + opix] += weight[row * kk + tap];
                          });
}

// ---- Inference epilogue rows (contracts: tensor/epilogue.h) ----------------

#if defined(__AVX2__)
/// The LIF update of 8 lanes, shared by lif_row and lif_panel: inputs
/// `in` against membranes `mv`, vt = beta * mv + in, spike where
/// vt - theta >= 0 (ordered: NaN never spikes, matching the scalar
/// compare), soft reset on spike lanes.
struct LifLanes {
  __m256 spike;  ///< 1.0 on spike lanes, +0 elsewhere
  __m256 m;      ///< updated membranes
  unsigned mask; ///< spike lanes as bits
};
inline LifLanes lif_lanes(__m256 in, __m256 mv, __m256 betav,
                          __m256 thetav) {
  const __m256 vt = _mm256_add_ps(_mm256_mul_ps(betav, mv), in);
  const __m256 dist = _mm256_sub_ps(vt, thetav);
  const __m256 ge = _mm256_cmp_ps(dist, _mm256_setzero_ps(), _CMP_GE_OQ);
  return {_mm256_and_ps(ge, _mm256_set1_ps(1.f)),
          _mm256_blendv_ps(vt, dist, ge),
          static_cast<unsigned>(_mm256_movemask_ps(ge))};
}

/// ORs the low `n` bits of `mask` into `wbits` from bit `bit` on; the
/// caller guarantees every set bit's position is in range.
inline void or_bits(std::uint64_t* wbits, std::int64_t bit, unsigned mask,
                    std::int64_t n) {
  const int off = static_cast<int>(bit & 63);
  wbits[bit >> 6] |= static_cast<std::uint64_t>(mask) << off;
  if (off + n > 64) {
    wbits[(bit >> 6) + 1] |= static_cast<std::uint64_t>(mask) >> (64 - off);
  }
}
#endif

template <bool V>
std::int64_t lif_row(std::int64_t p, const float* acc, int use_scale,
                     float scale, float bias, float beta, float theta,
                     float* m, float* dst, std::uint64_t* wbits,
                     std::int64_t bit0) {
  std::int64_t j = 0;
  std::int64_t spk = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 bv = _mm256_set1_ps(bias);
    const __m256 betav = _mm256_set1_ps(beta);
    const __m256 thetav = _mm256_set1_ps(theta);
    for (; j + 8 <= p; j += 8) {
      __m256 a = _mm256_loadu_ps(acc + j);
      if (use_scale != 0) a = _mm256_mul_ps(sv, a);
      const LifLanes l = lif_lanes(_mm256_add_ps(a, bv),
                                   _mm256_loadu_ps(m + j), betav, thetav);
      _mm256_storeu_ps(dst + j, l.spike);
      _mm256_storeu_ps(m + j, l.m);
      if (l.mask != 0) {
        spk += std::popcount(l.mask);
        or_bits(wbits, bit0 + j, l.mask, 8);
      }
    }
  }
#endif
  for (; j < p; ++j) {
    const float a0 = acc[j];
    const float in = (use_scale != 0 ? scale * a0 : a0) + bias;
    const float vt = beta * m[j] + in;
    const float dist = vt - theta;
    if (dist >= 0.f) {
      dst[j] = 1.f;
      m[j] = dist;
      const std::int64_t bit = bit0 + j;
      wbits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      ++spk;
    } else {
      dst[j] = 0.f;
      m[j] = vt;
    }
  }
  return spk;
}

#if defined(__AVX2__)
/// Eight accumulators of one panel row as floats; lanes at or past `n`
/// are neither read nor kept (they read 0).
inline __m256 load_acc8(const float* src, std::int64_t n, __m256i mask) {
  return n == 8 ? _mm256_loadu_ps(src) : _mm256_maskload_ps(src, mask);
}
inline __m256 load_acc8(const std::int32_t* src, std::int64_t n,
                        __m256i mask) {
  const auto* s = reinterpret_cast<const __m256i*>(src);
  return _mm256_cvtepi32_ps(n == 8 ? _mm256_loadu_si256(s)
                                   : _mm256_maskload_epi32(src, mask));
}

/// Accumulators at src[idx[k]] for the lanes set in `mask` (0 elsewhere).
inline __m256 gather_acc8(const float* src, __m256i idx, __m256i mask) {
  return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), src, idx,
                                  _mm256_castsi256_ps(mask), 4);
}
inline __m256 gather_acc8(const std::int32_t* src, __m256i idx,
                          __m256i mask) {
  return _mm256_cvtepi32_ps(_mm256_mask_i32gather_epi32(
      _mm256_setzero_si256(), src, idx, mask, 4));
}
#endif

#if defined(__AVX2__)
/// The AVX2 body of lif_panel (below), with the scale test hoisted out
/// of its loops.
template <bool Scaled, class Acc>
std::int64_t lif_panel_avx2(std::int64_t p, std::int64_t o_c, const Acc* acc,
                            const float* scale, const float* bias, float beta,
                            float theta, float* m, float* dst,
                            std::uint64_t* wbits) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 betav = _mm256_set1_ps(beta);
  const __m256 thetav = _mm256_set1_ps(theta);
  const __m256 one = _mm256_set1_ps(1.f);
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t spk = 0;
  auto lanes_below = [&](std::int64_t n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), lane);
  };
  // lif_row's lane update of the n outputs at m/dst + at and bit `at` on;
  // `a` holds their accumulators, `s` and `b` their scales and biases.
  auto update = [&](__m256 a, __m256 s, __m256 b, std::int64_t at,
                    std::int64_t n, __m256i nmask) {
    if constexpr (Scaled) a = _mm256_mul_ps(s, a);
    float* mo = m + at;
    float* d = dst + at;
    LifLanes l = lif_lanes(
        _mm256_add_ps(a, b),
        n == 8 ? _mm256_loadu_ps(mo) : _mm256_maskload_ps(mo, nmask), betav,
        thetav);
    if (n == 8) {
      _mm256_storeu_ps(d, l.spike);
      _mm256_storeu_ps(mo, l.m);
    } else {
      _mm256_maskstore_ps(d, nmask, l.spike);
      _mm256_maskstore_ps(mo, nmask, l.m);
      l.mask &= (1u << n) - 1u;
    }
    if (l.mask != 0) {
      spk += std::popcount(l.mask);
      or_bits(wbits, at, l.mask, n);
    }
  };

  if (p < 8) {
    // Lane f of an 8-channel block's 8p outputs is channel o0 + f / p,
    // pixel f % p.
    alignas(32) std::int32_t orel[56], aidx[56];
    for (std::int64_t f = 0; f < 8 * p; ++f) {
      orel[f] = static_cast<std::int32_t>(f / p);
      aidx[f] = static_cast<std::int32_t>(f % p * o_c + f / p);
    }
    for (std::int64_t o0 = 0; o0 < o_c; o0 += 8) {
      const __m256i cmask = lanes_below(o_c - o0);
      const __m256 s8 = Scaled ? _mm256_maskload_ps(scale + o0, cmask) : one;
      const __m256 b8 = _mm256_maskload_ps(bias + o0, cmask);
      const std::int64_t n = (o_c - o0 < 8 ? o_c - o0 : 8) * p;
      for (std::int64_t f = 0; f < n; f += 8) {
        const std::int64_t nl = n - f < 8 ? n - f : 8;
        const __m256i lm = lanes_below(nl);
        const __m256i oi =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(orel + f));
        const __m256i ai =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(aidx + f));
        update(gather_acc8(acc + o0, ai, lm),
               _mm256_permutevar8x32_ps(s8, oi),
               _mm256_permutevar8x32_ps(b8, oi), o0 * p + f, nl, lm);
      }
    }
    return spk;
  }

  for (std::int64_t o0 = 0; o0 < o_c; o0 += 8) {
    const std::int64_t nc = o_c - o0 < 8 ? o_c - o0 : 8;
    const __m256i cmask = lanes_below(nc);
    // One 8-pixel x nc-channel tile at pixel j0 with nr pixels valid.
    auto tile = [&](std::int64_t j0, std::int64_t nr, __m256i rmask) {
      __m256 r[8];
      for (std::int64_t i = 0; i < 8; ++i) {
        r[i] = i < nr ? load_acc8(acc + (j0 + i) * o_c + o0, nc, cmask)
                      : zero;
      }
      transpose8(r);  // r[c]: channel o0 + c at pixels j0..j0+7
      auto channel = [&](std::int64_t c) {
        const std::int64_t o = o0 + c;
        update(r[c], Scaled ? _mm256_set1_ps(scale[o]) : one,
               _mm256_set1_ps(bias[o]), o * p + j0, nr, rmask);
      };
      if (nc == 8) {
#pragma GCC unroll 8
        for (std::int64_t c = 0; c < 8; ++c) channel(c);
      } else {
        for (std::int64_t c = 0; c < nc; ++c) channel(c);
      }
    };
    const __m256i all = lanes_below(8);
    std::int64_t j0 = 0;
    for (; j0 + 8 <= p; j0 += 8) tile(j0, 8, all);
    if (j0 < p) tile(j0, p - j0, lanes_below(p - j0));
  }
  return spk;
}
#endif

/// lif_row over a (p, o_c) accumulator panel, writing the (o_c, p)
/// outputs: element (o, j) integrates acc[j * o_c + o] (an int32
/// accumulator converts exactly, as i32_to_f32 does) with scale[o] (none
/// when null) and bias[o], by lif_row's per-element arithmetic. The AVX2
/// body runs 8 outputs of one channel row per vector. From p = 8 up it
/// transposes 8-pixel x 8-channel tiles in registers; below, a channel's
/// row is shorter than a vector, so each vector covers 8 consecutive
/// outputs of the (o_c, p) layout, gathers their accumulators and
/// permutes their channels' scales and biases into place. Only a panel's
/// last tile or vector masks lanes.
template <bool V, class Acc>
std::int64_t lif_panel(std::int64_t p, std::int64_t o_c, const Acc* acc,
                       const float* scale, const float* bias, float beta,
                       float theta, float* m, float* dst,
                       std::uint64_t* wbits) {
#if defined(__AVX2__)
  if constexpr (V) {
    return scale != nullptr
               ? lif_panel_avx2<true>(p, o_c, acc, scale, bias, beta, theta, m,
                                      dst, wbits)
               : lif_panel_avx2<false>(p, o_c, acc, scale, bias, beta, theta,
                                       m, dst, wbits);
  }
#endif
  std::int64_t spk = 0;
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t j = 0; j < p; ++j) {
      const float a0 = static_cast<float>(acc[j * o_c + o]);
      const float in = (scale != nullptr ? scale[o] * a0 : a0) + bias[o];
      const std::int64_t idx = o * p + j;
      const float vt = beta * m[idx] + in;
      const float dist = vt - theta;
      if (dist >= 0.f) {
        dst[idx] = 1.f;
        m[idx] = dist;
        wbits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        ++spk;
      } else {
        dst[idx] = 0.f;
        m[idx] = vt;
      }
    }
  }
  return spk;
}

template <bool V>
void affine_row(std::int64_t p, const float* acc, int use_scale, float scale,
                float bias, int relu, float* dst) {
  std::int64_t j = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 bv = _mm256_set1_ps(bias);
    const __m256 zero = _mm256_setzero_ps();
    for (; j + 8 <= p; j += 8) {
      __m256 a = _mm256_loadu_ps(acc + j);
      if (use_scale != 0) a = _mm256_mul_ps(sv, a);
      __m256 in = _mm256_add_ps(a, bv);
      // max_ps(in, 0) == (in > 0 ? in : 0) lane-wise, including the NaN
      // and signed-zero cases (NaN compares false -> second operand).
      if (relu != 0) in = _mm256_max_ps(in, zero);
      _mm256_storeu_ps(dst + j, in);
    }
  }
#endif
  for (; j < p; ++j) {
    const float a0 = acc[j];
    const float in = (use_scale != 0 ? scale * a0 : a0) + bias;
    dst[j] = relu != 0 ? (in > 0.f ? in : 0.f) : in;
  }
}

/// One table per V instantiation; the two accessors declared in
/// simd_ops.h each wrap one of these in a function-local static.
template <bool V>
inline simd::SpikeKernels make_spike_table() {
  return simd::SpikeKernels{
      &conv2d_forward<V>,
      &linear_forward<V>,
      &depthwise_forward<V>,
      &conv2d_backward_weight<V>,
      &conv2d_backward_input<V>,
      &linear_backward_weight<V>,
      &linear_backward_input<V>,
      &depthwise_backward_weight<V>,
      &transpose_tiled<V, false>,
      &transpose_tiled<V, true>,
      &count_nonzero_impl<V>,
      &packed_conv2d_term<V>,
      &packed_depthwise_term<V>,
      &lif_row<V>,
      &lif_panel<V, float>,
      &lif_panel<V, std::int32_t>,
      &affine_row<V>,
      &direct_impl::forward<V>,
      &direct_impl::backward_input<V>,
      &direct_impl::backward_weight<V>,
  };
}

}  // namespace snnskip::spike_impl
