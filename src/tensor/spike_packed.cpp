#include "tensor/spike_packed.h"

#include <bit>
#include <stdexcept>

#include "tensor/simd_ops.h"

namespace snnskip {

std::int64_t spike_pack(const float* src, std::int64_t n,
                        std::uint64_t* words) {
  const std::int64_t nwords = packed_words(n);
  std::int64_t nnz = 0;
  bool binary = true;
  for (std::int64_t w = 0; w < nwords; ++w) {
    const std::int64_t base = w << 6;
    const std::int64_t lim = (n - base) < 64 ? (n - base) : 64;
    std::uint64_t bits = 0;
    for (std::int64_t k = 0; k < lim; ++k) {
      const float v = src[base + k];
      if (v != 0.f) {
        bits |= std::uint64_t{1} << k;
        ++nnz;
        if (v != 1.f) binary = false;
      }
    }
    words[w] = bits;
  }
  return binary ? nnz : -1;
}

std::int64_t popcount_words(const std::uint64_t* words, std::int64_t nwords) {
  std::int64_t total = 0;
  for (std::int64_t w = 0; w < nwords; ++w) {
    total += std::popcount(words[w]);
  }
  return total;
}

namespace {

/// One axis of a tap table: entry i lists the taps k with
/// i + pad - k = stride * t for an output index t in [0, out_len), as
/// (k * tap_scale, t * pix_scale) pairs.
void fill_axis(const ConvGeometry& g, std::int64_t len, std::int64_t out_len,
               std::int64_t tap_scale, std::int64_t pix_scale,
               std::int32_t* tab) {
  const std::int64_t entry_len = tap_entry_ints(g);
  for (std::int64_t i = 0; i < len; ++i) {
    std::int32_t* entry = tab + i * entry_len;
    std::int32_t n = 0;
    for (std::int64_t k = 0; k < g.kernel; ++k) {
      const std::int64_t t = i + g.pad - k;
      if (t < 0 || t % g.stride != 0 || t / g.stride >= out_len) continue;
      entry[1 + 2 * n] = static_cast<std::int32_t>(k * tap_scale);
      entry[2 + 2 * n] = static_cast<std::int32_t>(t / g.stride * pix_scale);
      ++n;
    }
    entry[0] = n;
  }
}

}  // namespace

void fill_tap_table(const ConvGeometry& g, std::int32_t* tab) {
  // TapCursor divides in-plane offsets by W with a 32-bit multiply-shift.
  if (g.in_h * g.in_w * g.in_w >= (std::int64_t{1} << 32)) {
    throw std::invalid_argument("fill_tap_table: input plane too large");
  }
  fill_axis(g, g.in_h, g.out_h(), g.kernel, g.out_w(), tab);
  fill_axis(g, g.in_w, g.out_w(), 1, 1, tab + g.in_h * tap_entry_ints(g));
}

std::vector<std::int32_t> tap_table(const ConvGeometry& g) {
  std::vector<std::int32_t> tab(static_cast<std::size_t>(tap_table_ints(g)));
  fill_tap_table(g, tab.data());
  return tab;
}

// Term-kernel bodies live in spike_kernels_impl.h (they share the vector
// primitives and dual-TU instantiation with the CSR kernels); these entry
// points jump through the active SIMD level's table.

std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      const std::int32_t* taps,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const float* wt, std::int64_t out_c,
                                      float* outt) {
  return simd::spike_ops().packed_conv2d_term(g, taps, src_c, words, chrow,
                                              wt, out_c, outt);
}

std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         const std::int32_t* taps,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const float* weight, float* acc) {
  return simd::spike_ops().packed_depthwise_term(g, taps, src_c, words, chrow,
                                                 weight, acc);
}

}  // namespace snnskip
