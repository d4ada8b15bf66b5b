// Tests for the int8 quantized inference building blocks (ISSUE 10): the
// quantized kernel layer (per-channel round-trip, int32 accumulator
// headroom at the kernels' maximum reduction depth, scalar-vs-AVX2 bit
// identity, packed event kernels vs dense GEMM references) and the
// QuantProfile calibration pass. Plan-level int8 behavior
// (ADD-join rescale, packed-vs-dense parity, weight shrink) lives in
// infer_test; serve-side self-calibration in serve_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "infer/compile.h"
#include "infer/engine.h"
#include "infer/quant.h"
#include "models/zoo.h"
#include "tensor/cpu_features.h"
#include "tensor/im2col.h"
#include "tensor/quant_kernels.h"
#include "tensor/spike_packed.h"
#include "util/rng.h"

namespace snnskip {
namespace {

bool avx2_available() { return simd_avx2_compiled() && cpu_has_avx2(); }

#define SKIP_WITHOUT_AVX2()                                            \
  if (!avx2_available()) {                                             \
    GTEST_SKIP() << "AVX2 not compiled in or not supported by host";   \
  }

/// Restore the process-wide SIMD level after each test.
class QuantTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = active_simd(); }
  void TearDown() override { set_active_simd(saved_level_); }

 private:
  SimdLevel saved_level_ = SimdLevel::Scalar;
};

std::vector<float> randu(std::int64_t n, std::uint64_t seed,
                         float lo = -1.f, float hi = 1.f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

std::vector<float> spikes(std::int64_t n, std::uint64_t seed, float density) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.uniform(0.f, 1.f) < density ? 1.f : 0.f;
  return v;
}

// --- quantize edge ----------------------------------------------------------

TEST_F(QuantTest, PerChannelScaleRoundTrip) {
  // The compile-time weight scheme applied through the runtime quantize
  // kernel: per-row S[o] = absmax / 127 keeps every code in [-127, 127],
  // maps the absmax element to +/-127 exactly, and bounds the dequantized
  // error by half a step.
  const std::int64_t rows = 7, cols = 33;
  const auto w = randu(rows * cols, 17, -3.f, 3.f);
  for (std::int64_t o = 0; o < rows; ++o) {
    const float* row = w.data() + o * cols;
    float absmax = 0.f;
    std::int64_t arg = 0;
    for (std::int64_t i = 0; i < cols; ++i) {
      if (std::fabs(row[i]) > absmax) {
        absmax = std::fabs(row[i]);
        arg = i;
      }
    }
    ASSERT_GT(absmax, 0.f);
    const float s = absmax / 127.f;
    std::vector<std::int8_t> q(static_cast<std::size_t>(cols));
    quantize_int8(cols, row, 1.f / s, q.data());
    for (std::int64_t i = 0; i < cols; ++i) {
      EXPECT_GE(q[static_cast<std::size_t>(i)], -127);
      EXPECT_LE(q[static_cast<std::size_t>(i)], 127);
      EXPECT_LE(std::fabs(static_cast<float>(q[static_cast<std::size_t>(i)]) *
                              s - row[i]),
                0.5001f * s)
          << "row " << o << " col " << i;
    }
    EXPECT_EQ(std::abs(static_cast<int>(q[static_cast<std::size_t>(arg)])),
              127);
  }
}

TEST_F(QuantTest, QuantizeRecoversExactCodes) {
  // Inputs that ARE code points (q * s) must survive the round-trip
  // bit-exactly — this is what makes binary-spike quantization at step
  // 1.0 lossless on the int8 dense path.
  const float s = 0.037f;
  std::vector<float> src;
  std::vector<int> want;
  for (int q = -127; q <= 127; q += 3) {
    src.push_back(static_cast<float>(q) * s);
    want.push_back(q);
  }
  std::vector<std::int8_t> got(src.size());
  quantize_int8(static_cast<std::int64_t>(src.size()), src.data(), 1.f / s,
                got.data());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got[i]), want[i]) << "q=" << want[i];
  }
  // Out-of-range magnitudes saturate instead of wrapping.
  const float big[2] = {1000.f, -1000.f};
  std::int8_t sat[2];
  quantize_int8(2, big, 1.f, sat);
  EXPECT_EQ(sat[0], 127);
  EXPECT_EQ(sat[1], -127);
}

// --- int32 accumulator headroom ---------------------------------------------

TEST_F(QuantTest, AccumulatorNeverOverflowsAtMaxReductionDepth) {
  // Worst case per output element: k full-magnitude products of 127*127.
  // The deepest reduction any plan can produce is the largest conv
  // column (C*K*K) or linear fan-in; even at an absurd k = 2^17 the
  // int32 accumulator has headroom (2^17 * 127^2 < 2^31), so real
  // geometries (C <= 512, K <= 3 => k <= 4608) sit 400x below the edge.
  const std::int64_t k = std::int64_t{1} << 17;
  ASSERT_LT(k * 127 * 127, std::int64_t{1} << 31);
  std::vector<std::int8_t> a(static_cast<std::size_t>(k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) {
    // Alternate signs so both operands exercise negative lanes while
    // every product stays at the positive extreme.
    const std::int8_t v = (i & 1) ? std::int8_t{-127} : std::int8_t{127};
    a[static_cast<std::size_t>(i)] = v;
    b[static_cast<std::size_t>(i)] = v;
  }
  std::int32_t c = 0;
  gemm_s8s32_nt(1, 1, k, a.data(), b.data(), &c);
  EXPECT_EQ(static_cast<std::int64_t>(c), k * 127 * 127);
}

// --- scalar vs AVX2 bit identity --------------------------------------------

TEST_F(QuantTest, KernelsBitIdenticalAcrossSimdLevels) {
  SKIP_WITHOUT_AVX2();
  // Odd sizes straddle the 32-lane quantize width, the 8-lane convert
  // width, and the gemm tile edges — the tails are where a vector port
  // diverges first.
  for (const std::int64_t n : {1, 7, 31, 32, 33, 257}) {
    const auto src = randu(n, 100 + static_cast<std::uint64_t>(n), -9.f, 9.f);
    std::vector<std::int8_t> qs(static_cast<std::size_t>(n));
    std::vector<std::int8_t> qv(static_cast<std::size_t>(n));
    std::vector<std::int32_t> is(static_cast<std::size_t>(n));
    std::vector<float> fs(static_cast<std::size_t>(n));
    std::vector<float> fv(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      is[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i * 7 - n);
    }
    ASSERT_EQ(set_active_simd(SimdLevel::Scalar), SimdLevel::Scalar);
    quantize_int8(n, src.data(), 3.7f, qs.data());
    convert_i32_to_f32(n, is.data(), fs.data());
    ASSERT_EQ(set_active_simd(SimdLevel::Avx2), SimdLevel::Avx2);
    quantize_int8(n, src.data(), 3.7f, qv.data());
    convert_i32_to_f32(n, is.data(), fv.data());
    EXPECT_EQ(std::memcmp(qs.data(), qv.data(), qs.size()), 0) << "n=" << n;
    EXPECT_EQ(std::memcmp(fs.data(), fv.data(), fs.size() * sizeof(float)),
              0)
        << "n=" << n;
  }

  struct Case {
    std::int64_t m, n, k;
  };
  for (const Case gc : {Case{1, 1, 1}, Case{3, 5, 7}, Case{13, 31, 33},
                        Case{16, 16, 64}, Case{5, 17, 131}}) {
    Rng rng(7 + static_cast<std::uint64_t>(gc.k));
    std::vector<std::int8_t> a(static_cast<std::size_t>(gc.m * gc.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(gc.n * gc.k));
    for (auto& x : a) {
      x = static_cast<std::int8_t>(rng.uniform(-127.49f, 127.49f));
    }
    for (auto& x : b) {
      x = static_cast<std::int8_t>(rng.uniform(-127.49f, 127.49f));
    }
    std::vector<std::int32_t> cs(static_cast<std::size_t>(gc.m * gc.n));
    std::vector<std::int32_t> cv(static_cast<std::size_t>(gc.m * gc.n));
    ASSERT_EQ(set_active_simd(SimdLevel::Scalar), SimdLevel::Scalar);
    gemm_s8s32_nt(gc.m, gc.n, gc.k, a.data(), b.data(), cs.data());
    ASSERT_EQ(set_active_simd(SimdLevel::Avx2), SimdLevel::Avx2);
    gemm_s8s32_nt(gc.m, gc.n, gc.k, a.data(), b.data(), cv.data());
    EXPECT_EQ(std::memcmp(cs.data(), cv.data(),
                          cs.size() * sizeof(std::int32_t)),
              0)
        << "m=" << gc.m << " n=" << gc.n << " k=" << gc.k;
  }
}

// --- packed event kernels ---------------------------------------------------

TEST_F(QuantTest, PackedConvTermI8MatchesGemmReference) {
  // The int8 event walk must agree exactly with the dense route the
  // engine's dense branch takes: im2row patches, spike codes (exactly 0
  // or 1 at unit step), gemm_s8s32_nt against the same weight rows.
  const ConvGeometry g{6, 9, 7, 3, 2, 1};
  const std::int64_t o_c = 5;
  const std::int64_t in_n = g.in_c * g.in_h * g.in_w;
  const std::int64_t ckk = g.col_rows();
  const std::int64_t p = g.out_h() * g.out_w();
  const auto x = spikes(in_n, 23, 0.25f);

  Rng rng(29);
  std::vector<std::int8_t> wrows(static_cast<std::size_t>(o_c * ckk));
  for (auto& w : wrows) {
    w = static_cast<std::int8_t>(rng.uniform(-127.49f, 127.49f));
  }
  std::vector<std::int8_t> wt(static_cast<std::size_t>(ckk * o_c));
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t r = 0; r < ckk; ++r) {
      wt[static_cast<std::size_t>(r * o_c + o)] =
          wrows[static_cast<std::size_t>(o * ckk + r)];
    }
  }

  // Dense reference.
  std::vector<float> patches(static_cast<std::size_t>(ckk * p));
  im2row(g, x.data(), patches.data());
  std::vector<std::int8_t> pq(patches.size());
  quantize_int8(ckk * p, patches.data(), 1.f, pq.data());
  std::vector<std::int32_t> ref(static_cast<std::size_t>(o_c * p));
  gemm_s8s32_nt(o_c, p, ckk, wrows.data(), pq.data(), ref.data());

  // Packed event walk.
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(packed_words(in_n)));
  ASSERT_GE(spike_pack(x.data(), in_n, words.data()), 0);
  std::vector<std::int32_t> panel(static_cast<std::size_t>(p * o_c), 0);
  const std::vector<std::int32_t> taps = tap_table(g);
  const std::int64_t synops =
      spike_packed_conv2d_term_i8(g, taps.data(), g.in_c, words.data(),
                                  nullptr, wt.data(), o_c, panel.data());
  EXPECT_GT(synops, 0);
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t j = 0; j < p; ++j) {
      EXPECT_EQ(panel[static_cast<std::size_t>(j * o_c + o)],
                ref[static_cast<std::size_t>(o * p + j)])
          << "o=" << o << " j=" << j;
    }
  }

  // And bit identity across SIMD levels on the same inputs.
  if (avx2_available()) {
    std::vector<std::int32_t> vpanel(panel.size(), 0);
    ASSERT_EQ(set_active_simd(SimdLevel::Avx2), SimdLevel::Avx2);
    EXPECT_EQ(spike_packed_conv2d_term_i8(g, taps.data(), g.in_c,
                                          words.data(), nullptr, wt.data(),
                                          o_c, vpanel.data()),
              synops);
    EXPECT_EQ(std::memcmp(panel.data(), vpanel.data(),
                          panel.size() * sizeof(std::int32_t)),
              0);
  }
}

TEST_F(QuantTest, PackedDepthwiseTermI8MatchesFloatTwin) {
  // Int8 codes are exactly representable as floats and spike-event
  // accumulation of them is exact in fp32 too (sums stay far below 2^24),
  // so the trusted float depthwise kernel doubles as a reference.
  const ConvGeometry g{5, 8, 9, 3, 1, 1};
  const std::int64_t in_n = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_n = g.in_c * g.out_h() * g.out_w();
  const auto x = spikes(in_n, 31, 0.3f);

  Rng rng(37);
  std::vector<std::int8_t> bank(
      static_cast<std::size_t>(g.in_c * g.kernel * g.kernel));
  std::vector<float> fbank(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    bank[i] = static_cast<std::int8_t>(rng.uniform(-127.49f, 127.49f));
    fbank[i] = static_cast<float>(bank[i]);
  }

  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(packed_words(in_n)));
  ASSERT_GE(spike_pack(x.data(), in_n, words.data()), 0);
  const std::vector<std::int32_t> taps = tap_table(g);
  std::vector<float> facc(static_cast<std::size_t>(out_n), 0.f);
  const std::int64_t fsyn =
      spike_packed_depthwise_term(g, taps.data(), g.in_c, words.data(),
                                  nullptr, fbank.data(), facc.data());
  std::vector<std::int32_t> iacc(static_cast<std::size_t>(out_n), 0);
  const std::int64_t isyn =
      spike_packed_depthwise_term_i8(g, taps.data(), g.in_c, words.data(),
                                     nullptr, bank.data(), iacc.data());
  EXPECT_EQ(fsyn, isyn);
  for (std::int64_t i = 0; i < out_n; ++i) {
    EXPECT_EQ(static_cast<float>(iacc[static_cast<std::size_t>(i)]),
              facc[static_cast<std::size_t>(i)])
        << "i=" << i;
  }
}

// --- calibration + profile format -------------------------------------------

TEST_F(QuantTest, CalibrationCoversWeightOpsAndRejectsInt8Plans) {
  ModelConfig cfg;
  cfg.width = 8;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 8;
  cfg.seed = 7;
  Network net = build_model("single_block", cfg,
                            default_adjacencies("single_block", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  const infer::PlanPtr plan = infer::compile(net, in);

  Rng rng(41);
  std::vector<std::vector<Tensor>> seqs(2);
  for (auto& seq : seqs) {
    for (int t = 0; t < 3; ++t) {
      seq.push_back(Tensor::bernoulli(in, rng, 0.3f));
    }
  }
  const infer::QuantProfile prof = infer::calibrate_quant(plan, seqs);
  EXPECT_EQ(prof.model, plan->model_name);
  ASSERT_FALSE(prof.op_amax.empty());
  bool any_positive = false;
  for (const auto& [name, v] : prof.op_amax) {
    EXPECT_FALSE(name.empty());
    EXPECT_GE(v, 0.f) << name;
    any_positive = any_positive || v > 0.f;
  }
  // The head linear consumes pooled (analog) activations — a sweep that
  // never sees a positive range calibrated nothing.
  EXPECT_TRUE(any_positive);
  EXPECT_EQ(prof.amax_for("no-such-op", 2.5f), 2.5f);

  infer::CompileOptions qopts;
  qopts.precision = infer::Precision::Int8;
  qopts.quant = &prof;
  const infer::PlanPtr q = infer::compile(net, in, qopts);
  EXPECT_THROW(infer::calibrate_quant(q, seqs), std::invalid_argument);
}

}  // namespace
}  // namespace snnskip
