#pragma once
// Bit-packed spike maps and popcount-guided accumulation kernels (ISSUE 6).
//
// The compiled inference engine represents every binary spike tensor as a
// packed bit mask — 64 spikes per word, bits in NCHW flat order — next to
// a dense float mirror written by the same fused epilogue. The mask makes
// the density measurement exact and O(words) (one popcount sweep instead
// of a float scan), lets skip joins operate on source masks directly (conv
// is linear, so an ADD join is just "accumulate each source term into the
// same output panel"), and drives the event kernels below: whole
// all-zero words are skipped with a single compare, and set bits are
// walked with count-trailing-zeros, so cost scales with the spike count.
//
// Bit order contract: words are filled from flat index 0 upward, bit k of
// word w is flat index w*64 + k, and the term kernels visit set bits in
// ascending flat order — the exact event order SpikeCsr::build produces.
// Since both paths accumulate the same weight rows in the same order into
// the same (Ho*Wo, O) transposed panel layout, the packed and CSR paths
// agree bit-for-bit on single-source layers (see tests/infer_test.cpp).
//
// Tap tables: an event at input pixel (c, iy, ix) feeds output pixel
// (oy, ox) through tap (ky, kx) when iy + pad - ky = stride * oy and
// ix + pad - kx = stride * ox land on the output grid. Those pairs depend
// on iy and ix alone, so fill_tap_table lists them once per geometry;
// the compiler keeps one table per Conv/DwConv op and per sunk term in
// the plan, and the training event kernels fill theirs once per call.
// TapCursor decodes each event's channel by advancing a channel base from
// the previous event and its row by a multiply-shift, so no walk divides
// per event or per tap (a row-advance loop there mispredicted its exit
// on most events).
//
// A "term" is one input source of a consuming conv: the sequential
// predecessor, an ADD-skip source, or a concat-skip channel subset.
// `chrow` maps a source channel to the consumer's input-channel row
// (identity when null, -1 to skip a channel), which is how DSC subsets
// select weight rows without materializing a gathered tensor.

#include <bit>
#include <cstdint>
#include <vector>

#include "tensor/im2col.h"

namespace snnskip {

/// Words needed to pack `numel` spikes at 64 per word.
inline std::int64_t packed_words(std::int64_t numel) {
  return (numel + 63) >> 6;
}

/// Pack `n` floats into bits (bit set where src != 0). Tail bits of the
/// last word are zeroed. Returns the nonzero count, or -1 if any entry is
/// not exactly 0.f or 1.f (caller falls back to the dense representation —
/// encoder outputs are binary, but arbitrary user input need not be).
std::int64_t spike_pack(const float* src, std::int64_t n,
                        std::uint64_t* words);

/// Total set bits across `nwords` words.
std::int64_t popcount_words(const std::uint64_t* words, std::int64_t nwords);

// ---- Tap tables -------------------------------------------------------------

/// Ints per table entry of `g`: a count, then up to `kernel` pairs.
inline std::int64_t tap_entry_ints(const ConvGeometry& g) {
  return 1 + 2 * g.kernel;
}

/// Ints in the tap table of `g`: one entry per input row, then one per
/// input column.
inline std::int64_t tap_table_ints(const ConvGeometry& g) {
  return (g.in_h + g.in_w) * tap_entry_ints(g);
}

/// Fills `tab` (tap_table_ints(g) ints). Row entry iy is
/// [n, (ky * K, oy * Wo)...] and column entry ix is [n, (kx, ox)...],
/// each ascending in the tap and listing only taps that land on the
/// output grid, so tap = ky * K + kx and output pixel = oy * Wo + ox are
/// one add each.
void fill_tap_table(const ConvGeometry& g, std::int32_t* tab);

/// The tap table of `g` as plan storage.
std::vector<std::int32_t> tap_table(const ConvGeometry& g);

/// Walks one image's events, in ascending flat (c, iy, ix) order, over a
/// tap table of `g`.
class TapCursor {
 public:
  TapCursor(const ConvGeometry& g, const std::int32_t* tab)
      : w_(g.in_w),
        hw_(g.in_h * g.in_w),
        len_(tap_entry_ints(g)),
        inv_w_((std::uint64_t{1} << 32) / static_cast<std::uint64_t>(g.in_w) +
               1),
        rows_(tab),
        cols_(tab + g.in_h * len_) {}

  /// Moves to the event at `flat`, which must not precede the previous
  /// one, and returns its channel.
  [[gnu::always_inline]] std::int64_t seek(std::int64_t flat) {
    while (flat >= cbase_ + hw_) {
      cbase_ += hw_;
      ++c_;
    }
    // iy = rem / W by multiply-shift: exact while H * W * W < 2^32
    // (fill_tap_table checks).
    const auto rem = static_cast<std::uint64_t>(flat - cbase_);
    const auto iy = static_cast<std::int64_t>((rem * inv_w_) >> 32);
    ty_ = rows_ + iy * len_;
    tx_ = cols_ + (static_cast<std::int64_t>(rem) - iy * w_) * len_;
    return c_;
  }

  /// Calls f(tap, opix) for each valid tap of the current event, ky then
  /// kx ascending, and returns how many there were.
  template <typename Fn>
  [[gnu::always_inline]] std::int64_t taps(Fn&& f) const {
    for (std::int32_t a = 0; a < ty_[0]; ++a) {
      const std::int64_t tap_y = ty_[1 + 2 * a], pix_y = ty_[2 + 2 * a];
      for (std::int32_t b = 0; b < tx_[0]; ++b) {
        f(tap_y + tx_[1 + 2 * b], pix_y + tx_[2 + 2 * b]);
      }
    }
    return static_cast<std::int64_t>(ty_[0]) * tx_[0];
  }

 private:
  std::int64_t w_, hw_, len_;
  std::uint64_t inv_w_;
  const std::int32_t* rows_;
  const std::int32_t* cols_;
  std::int64_t c_ = 0, cbase_ = 0;
  const std::int32_t* ty_ = nullptr;
  const std::int32_t* tx_ = nullptr;
};

/// The packed term kernels' walk over one image's (src_c, H, W) mask:
/// for each set bit in ascending flat order whose channel c maps to
/// row = chrow[c] (c when chrow is null; a row of -1 drops the event),
/// calls f(row, tap, opix) for every valid tap. Returns the taps visited.
template <typename Fn>
[[gnu::always_inline]] inline std::int64_t walk_packed_taps(
    const ConvGeometry& g, const std::int32_t* tab, std::int64_t src_c,
    const std::uint64_t* words, const std::int32_t* chrow, Fn&& f) {
  const std::int64_t nwords = packed_words(src_c * g.in_h * g.in_w);
  TapCursor cur(g, tab);
  std::int64_t n = 0;
  for (std::int64_t wi = 0; wi < nwords; ++wi) {
    // Popcount-guided: an all-zero word skips 64 positions at once.
    for (std::uint64_t bits = words[wi]; bits != 0; bits &= bits - 1) {
      const std::int64_t c = cur.seek((wi << 6) + std::countr_zero(bits));
      const std::int64_t row =
          chrow != nullptr ? static_cast<std::int64_t>(chrow[c]) : c;
      if (row < 0) continue;
      n += cur.taps([&](std::int64_t tap, std::int64_t opix) {
        f(row, tap, opix);
      });
    }
  }
  return n;
}

// ---- Term kernels -----------------------------------------------------------

/// Accumulate one packed input term of a conv layer into the transposed
/// output panel `outt` (Ho*Wo rows of `out_c` contiguous floats) for a
/// single image. `g` is the CONSUMER's geometry (g.in_c = its total input
/// channels; g.in_h/in_w are shared with the source) and `taps` its tap
/// table (fill_tap_table). `words` packs the source image's
/// (src_c, H, W) spikes; `chrow` (size src_c, or null for
/// identity) maps source channels to consumer input-channel rows of the
/// transposed weight `wt` ((c,ky,kx), o layout), -1 dropping the channel.
/// Returns the number of accumulates performed (exact synaptic-operation
/// count for the energy model).
std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      const std::int32_t* taps,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const float* wt, std::int64_t out_c,
                                      float* outt);

/// Depthwise twin of spike_packed_conv2d_term: accumulate into the
/// (C, Ho, Wo) accumulator `acc` for one image; `weight` is the layer's
/// (C, 1, K, K) kernel bank. Returns the accumulate count.
std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         const std::int32_t* taps,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const float* weight, float* acc);

}  // namespace snnskip
