#pragma once
// Direct-convolution kernel bodies (contracts: tensor/conv_direct.h),
// shared by the scalar and AVX2 translation units like the event kernels
// in spike_kernels_impl.h: V selects AVX2 intrinsics. V=true stays
// bit-identical to V=false because every output element accumulates the
// same products in the same order, one unfused multiply and one add per
// lane.
//
// Operand layout. Each image is copied once into a zero-padded,
// stride-phase-split buffer: channel c holds s*s phase planes, plane
// (py, px) holding padded pixel (s*i + py, s*j + px) at row i, column j,
// with rows of wq = ceil((W + 2*pad) / s) floats. Tap (ky, kx) of output
// pixel (oy, ox) then reads plane (ky % s, kx % s) at offset
// (oy + ky / s) * wq + ox + kx / s. On the "extended" output grid
// q = oy * wq + ox every tap is thus a contiguous run of q, whatever the
// stride, and a register tile of 4 rows x 16 q loads its operand with two
// unaligned vector loads, as gemm's 4x16 tile does. Since
// wq >= Wo + (K - 1) / s, a valid pixel's taps never wrap into the next
// row. The surplus columns ox >= Wo are computed and dropped (forward), or
// carry +0 (dX), whose adds change nothing.

#include <algorithm>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "parallel/parallel_for.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace snnskip::spike_impl {
// Cache-blocked transpose: dst(c, r) = src(r, c), or += with Add. Defined
// in spike_kernels_impl.h, which includes this header.
template <bool V, bool Add>
void transpose_tiled(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst);
}  // namespace snnskip::spike_impl

namespace snnskip::direct_impl {

inline constexpr int kMr = 4;   // tile rows (broadcast operands)
inline constexpr int kNr = 16;  // tile columns (two 8-lane vectors)

inline std::int64_t round8(std::int64_t v) { return (v + 7) / 8 * 8; }

/// Integer scratch carved from the float arena (same size and alignment).
inline std::int32_t* ints(Workspace::Scope& scope, std::int64_t n) {
  return reinterpret_cast<std::int32_t*>(
      scope.floats(static_cast<std::size_t>(n)));
}

/// Sizes of the phase-split copy of one image.
struct PhaseLayout {
  std::int64_t s = 1;
  std::int64_t wq = 0;     // phase-plane row length
  std::int64_t ext = 0;    // extended grid Ho * wq, rounded up to 8 lanes
  std::int64_t plane = 0;  // floats per phase plane, with room for the
                           // last tile's furthest tap
  std::int64_t chan = 0;   // floats per channel (s * s planes)

  explicit PhaseLayout(const ConvGeometry& g) : s(g.stride) {
    const std::int64_t hq = (g.in_h + 2 * g.pad + s - 1) / s;
    wq = (g.in_w + 2 * g.pad + s - 1) / s;
    ext = round8(g.out_h() * wq);
    const std::int64_t reach = (g.kernel - 1) / s * (wq + 1);
    plane = round8(std::max(hq * wq, ext + reach));
    chan = s * s * plane;
  }

  /// Offset of tap (ky, kx) within a channel's phase planes.
  std::int64_t tap(std::int64_t ky, std::int64_t kx) const {
    return ((ky % s) * s + kx % s) * plane + (ky / s) * wq + kx / s;
  }
};

/// off[r] = operand offset of reduction index r = (c, ky, kx) in the
/// phase-split copy of an image.
inline void reduction_offsets(const ConvGeometry& g, const PhaseLayout& l,
                              std::int32_t* off) {
  std::int64_t r = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++r) {
        off[r] = static_cast<std::int32_t>(c * l.chan + l.tap(ky, kx));
      }
    }
  }
}

/// Calls f(pixel, slot) for every pixel of one (C, H, W) image and its slot
/// in the phase planes: padded pixel (Y, X) = (iy + pad, ix + pad) sits in
/// plane (Y % s, X % s) at row Y / s, column X / s. Phases and plane
/// coordinates advance incrementally, without dividing per pixel.
template <typename Pixel, typename Fn>
inline void for_each_phase_slot(const ConvGeometry& g, const PhaseLayout& l,
                                Pixel* img, float* planes, Fn&& f) {
  const std::int64_t s = l.s;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    std::int64_t py = g.pad % s, yq = g.pad / s;
    for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
      Pixel* src = img + (c * g.in_h + iy) * g.in_w;
      float* row = planes + c * l.chan + py * s * l.plane + yq * l.wq;
      std::int64_t px = g.pad % s, xq = g.pad / s;
      for (std::int64_t ix = 0; ix < g.in_w; ++ix) {
        f(src[ix], row[px * l.plane + xq]);
        if (++px == s) {
          px = 0;
          ++xq;
        }
      }
      if (++py == s) {
        py = 0;
        ++yq;
      }
    }
  }
}

/// Zero-padded phase-split copy of one (C, H, W) image into `xp`
/// (C * chan floats).
inline void pack_phases(const ConvGeometry& g, const PhaseLayout& l,
                        const float* img, float* xp) {
  std::memset(xp, 0,
              static_cast<std::size_t>(g.in_c * l.chan) * sizeof(float));
  for_each_phase_slot(g, l, img, xp,
                      [](const float& v, float& slot) { slot = v; });
}

/// Inverse of pack_phases on the valid pixels: img = the planes' interior.
inline void unpack_phases(const ConvGeometry& g, const PhaseLayout& l,
                          float* planes, float* img) {
  for_each_phase_slot(g, l, img, planes,
                      [](float& v, const float& slot) { v = slot; });
}

/// One Mr x (8 * NrV) register tile:
///   tile(r, j) = sum over p < depth, ascending, of a[r][aidx(p)] * bptr(p)[j]
/// accumulated from +0 and stored at tile[r * kNr + j].
template <bool V, int Mr, int NrV, typename AIdx, typename BPtr>
inline void dot_tile(std::int64_t depth, const float* const* arow,
                     AIdx&& aidx, BPtr&& bptr, float* tile) {
  const float* a[Mr];
  for (int r = 0; r < Mr; ++r) a[r] = arow[r];
#if defined(__AVX2__)
  if constexpr (V) {
    __m256 acc[Mr][NrV];
    for (int r = 0; r < Mr; ++r) {
      for (int v = 0; v < NrV; ++v) acc[r][v] = _mm256_setzero_ps();
    }
    for (std::int64_t p = 0; p < depth; ++p) {
      const std::int64_t ai = aidx(p);
      const float* b = bptr(p);
      __m256 bv[NrV];
      for (int v = 0; v < NrV; ++v) bv[v] = _mm256_loadu_ps(b + 8 * v);
      for (int r = 0; r < Mr; ++r) {
        const __m256 av = _mm256_set1_ps(a[r][ai]);
        for (int v = 0; v < NrV; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
        }
      }
    }
    for (int r = 0; r < Mr; ++r) {
      for (int v = 0; v < NrV; ++v) {
        _mm256_storeu_ps(tile + r * kNr + 8 * v, acc[r][v]);
      }
    }
    return;
  }
#endif
  constexpr int kCols = 8 * NrV;
  float acc[Mr][kCols] = {};
  for (std::int64_t p = 0; p < depth; ++p) {
    const std::int64_t ai = aidx(p);
    const float* b = bptr(p);
    for (int r = 0; r < Mr; ++r) {
      const float av = a[r][ai];
      for (int j = 0; j < kCols; ++j) acc[r][j] += av * b[j];
    }
  }
  for (int r = 0; r < Mr; ++r) {
    std::memcpy(tile + r * kNr, acc[r], sizeof(acc[r]));
  }
}

template <bool V, int Mr, typename AIdx, typename BPtr>
inline void dot_tile_cols(bool wide, std::int64_t depth,
                          const float* const* arow, AIdx&& aidx, BPtr&& bptr,
                          float* tile) {
  if (wide) {
    dot_tile<V, Mr, 2>(depth, arow, aidx, bptr, tile);
  } else {
    dot_tile<V, Mr, 1>(depth, arow, aidx, bptr, tile);
  }
}

/// The three kernels' shared product driver: rows [m0, m1) x columns
/// [0, n) (n a multiple of 8) of
///   out(i, j) = sum over p < depth, ascending, of
///               arow(i)[aidx(p)] * bptr(p)[j],
/// in tiles of up to kMr rows x kNr columns, each handed to
/// emit(i0, mr, j0, nr, tile) with row stride kNr.
template <bool V, typename ARow, typename AIdx, typename BPtr, typename Emit>
void run_tiles(std::int64_t m0, std::int64_t m1, std::int64_t n,
               std::int64_t depth, ARow&& arow, AIdx&& aidx, BPtr&& bptr,
               Emit&& emit) {
  alignas(32) float tile[kMr * kNr];
  for (std::int64_t i0 = m0; i0 < m1; i0 += kMr) {
    const int mr = static_cast<int>(std::min<std::int64_t>(kMr, m1 - i0));
    const float* rows[kMr] = {};
    for (int r = 0; r < mr; ++r) rows[r] = arow(i0 + r);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
      const bool wide = n - j0 >= kNr;
      auto b = [&](std::int64_t p) { return bptr(p) + j0; };
      switch (mr) {
        case 4: dot_tile_cols<V, 4>(wide, depth, rows, aidx, b, tile); break;
        case 3: dot_tile_cols<V, 3>(wide, depth, rows, aidx, b, tile); break;
        case 2: dot_tile_cols<V, 2>(wide, depth, rows, aidx, b, tile); break;
        default: dot_tile_cols<V, 1>(wide, depth, rows, aidx, b, tile);
      }
      emit(i0, mr, j0, wide ? kNr : 8, tile);
    }
  }
}

struct Identity {
  std::int64_t operator()(std::int64_t p) const { return p; }
};

template <bool V>
void forward(const ConvGeometry& g, std::int64_t n, const float* x,
             const float* weight, std::int64_t out_c, float* out,
             Workspace& ws) {
  const PhaseLayout l(g);
  const std::int64_t ckk = g.col_rows();
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t in_img = g.in_c * g.in_h * g.in_w;
  auto scope = ws.scope();
  std::int32_t* roff = ints(scope, ckk);
  reduction_offsets(g, l, roff);
  // Images own disjoint outputs, so any partition gives the same bits.
  parallel_for_range(0, static_cast<std::size_t>(n),
                     [&](std::size_t b, std::size_t e) {
    auto cs = Workspace::tls().scope();
    float* xp = cs.floats(static_cast<std::size_t>(g.in_c * l.chan));
    float* ext = cs.floats(static_cast<std::size_t>(out_c * l.ext));
    for (std::size_t img = b; img < e; ++img) {
      pack_phases(g, l, x + static_cast<std::int64_t>(img) * in_img, xp);
      // ext(o, q) = sum over r = (c, ky, kx) of W(o, r) * xp[roff[r] + q]
      run_tiles<V>(
          0, out_c, l.ext, ckk,
          [&](std::int64_t o) { return weight + o * ckk; }, Identity{},
          [&](std::int64_t r) { return xp + roff[r]; },
          [&](std::int64_t i0, int mr, std::int64_t j0, std::int64_t nr,
              const float* tile) {
            for (int r = 0; r < mr; ++r) {
              std::memcpy(ext + (i0 + r) * l.ext + j0, tile + r * kNr,
                          static_cast<std::size_t>(nr) * sizeof(float));
            }
          });
      float* o = out + static_cast<std::int64_t>(img) * out_c * ho * wo;
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          std::memcpy(o + (oc * ho + oy) * wo, ext + oc * l.ext + oy * l.wq,
                      static_cast<std::size_t>(wo) * sizeof(float));
        }
      }
    }
  });
}

template <bool V>
void backward_input(const ConvGeometry& g, std::int64_t n,
                    const float* grad_out, const float* weight,
                    std::int64_t out_c, float* grad_in, Workspace& ws) {
  const PhaseLayout l(g);
  const std::int64_t ckk = g.col_rows(), kk = g.kernel * g.kernel;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t in_img = g.in_c * g.in_h * g.in_w;
  auto scope = ws.scope();
  // W^T (CKK, O): row (c, ky, kx) is the reduction operand of one tap.
  float* wt = scope.floats(static_cast<std::size_t>(ckk * out_c));
  spike_impl::transpose_tiled<V, false>(weight, out_c, ckk, wt);
  std::int32_t* toff = ints(scope, kk);
  for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
    for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
      toff[ky * g.kernel + kx] = static_cast<std::int32_t>(l.tap(ky, kx));
    }
  }
  parallel_for_range(0, static_cast<std::size_t>(n),
                     [&](std::size_t b, std::size_t e) {
    auto cs = Workspace::tls().scope();
    float* ge = cs.floats(static_cast<std::size_t>(out_c * l.ext));
    float* dp = cs.floats(static_cast<std::size_t>(g.in_c * l.chan));
    for (std::size_t img = b; img < e; ++img) {
      // grad_out on the extended grid; the surplus columns hold +0, so
      // their products add nothing wherever they land.
      std::memset(ge, 0,
                  static_cast<std::size_t>(out_c * l.ext) * sizeof(float));
      const float* go =
          grad_out + static_cast<std::int64_t>(img) * out_c * howo;
      for (std::int64_t oc = 0; oc < out_c; ++oc) {
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          std::memcpy(ge + oc * l.ext + oy * l.wq, go + (oc * ho + oy) * wo,
                      static_cast<std::size_t>(wo) * sizeof(float));
        }
      }
      std::memset(dp, 0,
                  static_cast<std::size_t>(g.in_c * l.chan) * sizeof(float));
      // Tap-major: each tap's column of dcols(c, ky, kx; q) = sum over o of
      // W(o, c, ky, kx) * gO(o, q) is formed from +0 and added into the
      // input pixel it maps to, so every pixel receives its terms in
      // ascending (ky, kx) order, as gemm_tn + col2im added them.
      for (std::int64_t t = 0; t < kk; ++t) {
        run_tiles<V>(
            0, g.in_c, l.ext, out_c,
            [&](std::int64_t c) { return wt + (c * kk + t) * out_c; },
            Identity{}, [&](std::int64_t o) { return ge + o * l.ext; },
            [&](std::int64_t i0, int mr, std::int64_t j0, std::int64_t nr,
                const float* tile) {
              for (int r = 0; r < mr; ++r) {
                float* d = dp + (i0 + r) * l.chan + toff[t] + j0;
                const float* src = tile + r * kNr;
                for (std::int64_t j = 0; j < nr; ++j) d[j] += src[j];
              }
            });
      }
      unpack_phases(g, l, dp,
                    grad_in + static_cast<std::int64_t>(img) * in_img);
    }
  });
}

template <bool V>
void backward_weight(const ConvGeometry& g, std::int64_t n, const float* x,
                     const float* grad_out, std::int64_t out_c,
                     float* grad_weight, Workspace& ws) {
  const PhaseLayout l(g);
  const std::int64_t ckk = g.col_rows();
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t in_img = g.in_c * g.in_h * g.in_w;
  const std::int64_t opad = round8(out_c);
  auto scope = ws.scope();
  std::int32_t* roff = ints(scope, ckk);
  reduction_offsets(g, l, roff);
  // Extended-grid position of every valid output pixel, in pixel order.
  std::int32_t* qext = ints(scope, howo);
  for (std::int64_t oy = 0; oy < ho; ++oy) {
    for (std::int64_t ox = 0; ox < wo; ++ox) {
      qext[oy * wo + ox] = static_cast<std::int32_t>(oy * l.wq + ox);
    }
  }
  float* xp = scope.floats(static_cast<std::size_t>(g.in_c * l.chan));
  float* got = scope.floats(static_cast<std::size_t>(howo * opad));
  float* part = scope.floats(static_cast<std::size_t>(ckk * out_c));
  const std::int64_t blocks = (ckk + kMr - 1) / kMr;
  for (std::int64_t img = 0; img < n; ++img) {
    pack_phases(g, l, x + img * in_img, xp);
    // gO^T (HoWo, opad); lanes past O hold +0 and are never stored.
    const float* go = grad_out + img * out_c * howo;
    for (std::int64_t q = 0; q < howo; ++q) {
      float* row = got + q * opad;
      for (std::int64_t oc = 0; oc < out_c; ++oc) row[oc] = go[oc * howo + q];
      for (std::int64_t oc = out_c; oc < opad; ++oc) row[oc] = 0.f;
    }
    // Per-image partial P(r, o) = sum over pixels, ascending, of
    // x(r, q) * gO(o, q) from +0 (row blocks own disjoint rows), added to
    // dW once by the transpose, as gemm_nt's per-image product is.
    parallel_for_range(0, static_cast<std::size_t>(blocks),
                       [&](std::size_t b, std::size_t e) {
      run_tiles<V>(
          static_cast<std::int64_t>(b) * kMr,
          std::min(ckk, static_cast<std::int64_t>(e) * kMr), opad, howo,
          [&](std::int64_t r) { return xp + roff[r]; },
          [&](std::int64_t p) { return static_cast<std::int64_t>(qext[p]); },
          [&](std::int64_t p) { return got + p * opad; },
          [&](std::int64_t i0, int mr, std::int64_t j0, std::int64_t nr,
              const float* tile) {
            const std::int64_t jn = std::min(nr, out_c - j0);
            for (int r = 0; r < mr; ++r) {
              std::memcpy(part + (i0 + r) * out_c + j0, tile + r * kNr,
                          static_cast<std::size_t>(jn) * sizeof(float));
            }
          });
    });
    spike_impl::transpose_tiled<V, true>(part, ckk, out_c, grad_weight);
  }
}

}  // namespace snnskip::direct_impl
