// Tests for the compiled inference engine (ISSUE 6): BN-fold numerical
// equivalence, packed-vs-dense and packed-vs-training-event-path forward
// equivalence across join types and geometries, the batch-1 compile
// shape, plan buffer-reuse safety, zero-allocation steady state,
// checkpoint round-trips, and dispatch/energy accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/adjacency.h"
#include "graph/block.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "infer/quant.h"
#include "models/zoo.h"
#include "snn/spike_stats.h"
#include "tensor/quant_kernels.h"
#include "tensor/spike_csr.h"
#include "tensor/spike_kernels.h"
#include "tensor/spike_packed.h"
#include "tensor/workspace.h"
#include "train/checkpoint.h"
#include "util/rng.h"

namespace snnskip {
namespace {

using infer::CompileOptions;
using infer::Engine;
using infer::ExecOptions;
using infer::Plan;

// Saves and restores the training graph's process-wide SparseExec
// threshold around each test so forced configurations never leak into
// other suites. Engines under test pass explicit ExecOptions instead.
class InferTest : public ::testing::Test {
 protected:
  void SetUp() override { sparse_thr_ = SparseExec::threshold(); }
  void TearDown() override { SparseExec::set_threshold(sparse_thr_); }

 private:
  float sparse_thr_ = 0.25f;
};

ModelConfig small_cfg() {
  ModelConfig cfg;
  cfg.width = 8;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 10;
  cfg.seed = 7;
  return cfg;
}

std::vector<Tensor> spike_inputs(const Shape& s, std::int64_t steps, float p,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> xs;
  for (std::int64_t t = 0; t < steps; ++t) {
    xs.push_back(Tensor::bernoulli(s, rng, p));
  }
  return xs;
}

/// Run a few train-mode steps so BNTT accumulates non-trivial per-timestep
/// running stats (otherwise folding is a near-identity and proves little),
/// then clear all contexts/state for the eval comparison.
void warm_bn_stats(Network& net, const Shape& in_shape, std::int64_t steps) {
  Rng rng(99);
  net.reset_state();
  for (std::int64_t t = 0; t < steps; ++t) {
    net.forward(Tensor::bernoulli(in_shape, rng, 0.3f), /*train=*/true);
  }
  net.reset_state();
}

std::vector<Tensor> training_eval(Network& net,
                                  const std::vector<Tensor>& xs) {
  net.reset_state();
  std::vector<Tensor> outs;
  for (const Tensor& x : xs) outs.push_back(net.forward(x, false));
  return outs;
}

std::vector<Tensor> engine_eval(Engine& eng, const std::vector<Tensor>& xs) {
  eng.reset();
  std::vector<Tensor> outs;
  for (const Tensor& x : xs) outs.push_back(eng.step(x));
  return outs;
}

/// A zoo model with its default adjacencies, or one of two variants:
/// "single_block-chain" (no skips) and "resnet18s-dsc" (each block's
/// identity skip (0, 2) made a DSC edge, so each strided block's skip
/// runs the engine's DscGather op). Each case runs at a LIF threshold at
/// which every LIF layer fires over the no-fold tests' sequences (8x8
/// input, densities 0.15 and 0.25), the highest of {1, 0.75, 0.5, 0.4}
/// (resnet18s-dsc keeps its 0.3): at threshold 1.0 the deep stages of
/// resnet18s, resnet18s-dsc and densenet121s stay silent, and a bitwise
/// comparison of all-zero planes checks nothing there.
Network build_case(const std::string& name, const ModelConfig& cfg) {
  ModelConfig firing = cfg;
  if (name == "single_block" || name == "single_block-chain") {
    firing.lif.threshold = 0.75f;
  } else if (name == "resnet18s") {
    firing.lif.threshold = 0.5f;
  } else if (name == "densenet121s") {
    firing.lif.threshold = 0.4f;
  } else if (name == "resnet18s-dsc") {
    firing.lif.threshold = 0.3f;
  }
  if (name == "single_block-chain") {
    return build_model("single_block", firing, {Adjacency::chain(4)});
  }
  if (name == "resnet18s-dsc") {
    std::vector<Adjacency> adjs = default_adjacencies("resnet18s", firing);
    for (Adjacency& adj : adjs) adj.set(0, 2, SkipType::DSC);
    return build_model("resnet18s", firing, adjs);
  }
  return build_model(name, firing, default_adjacencies(name, firing));
}

/// The training eval forward of `xs`, failing the test if some LIF layer
/// stays silent over the whole sequence.
std::vector<Tensor> firing_training_eval(Network& net,
                                         const std::vector<Tensor>& xs,
                                         const std::string& label) {
  FiringRateRecorder rec;
  net.set_recorder(&rec);
  auto outs = training_eval(net, xs);
  net.set_recorder(nullptr);
  const auto rates = rec.per_layer_rates();
  EXPECT_FALSE(rates.empty()) << label;
  for (const auto& [layer, rate] : rates) {
    EXPECT_GT(rate, 0.0) << label << ": LIF layer " << layer
                         << " never fired";
  }
  return outs;
}

float max_step_diff(const std::vector<Tensor>& a,
                    const std::vector<Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, Tensor::max_abs_diff(a[i], b[i]));
  }
  return worst;
}

// --- packed kernels ---------------------------------------------------------

TEST_F(InferTest, SpikePackRoundTripAndPopcount) {
  Rng rng(3);
  const std::int64_t n = 130;  // exercises a partial tail word
  Tensor x = Tensor::bernoulli(Shape{n}, rng, 0.4f);
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(packed_words(n)), ~std::uint64_t{0});
  const std::int64_t nnz = spike_pack(x.data(), n, words.data());
  ASSERT_GE(nnz, 0);
  EXPECT_EQ(nnz, count_nonzero(x.data(), n));
  EXPECT_EQ(popcount_words(words.data(), packed_words(n)), nnz);
  for (std::int64_t i = 0; i < n; ++i) {
    const bool bit = (words[static_cast<std::size_t>(i >> 6)] >>
                      (i & 63)) & 1u;
    EXPECT_EQ(bit, x.data()[i] != 0.f) << "bit " << i;
  }

  x.data()[5] = 0.5f;  // non-binary input must be rejected
  EXPECT_EQ(spike_pack(x.data(), n, words.data()), -1);
}

TEST_F(InferTest, PackedConvTermMatchesCsrKernelBitwise) {
  // Single-term layer: the packed walk visits events in SpikeCsr order and
  // accumulates identical weight rows, so agreement must be exact.
  Rng rng(11);
  const ConvGeometry g{6, 9, 7, 3, 2, 1};
  const std::int64_t o_c = 5;
  const std::int64_t in_n = g.in_c * g.in_h * g.in_w;
  const std::int64_t p = g.out_h() * g.out_w();
  Tensor x = Tensor::bernoulli(Shape{1, g.in_c, g.in_h, g.in_w}, rng, 0.2f);
  Tensor w = Tensor::randn(Shape{o_c, g.in_c, g.kernel, g.kernel}, rng);

  SpikeCsr csr;
  csr.build(x.data(), 1, in_n);
  std::vector<float> ref(static_cast<std::size_t>(o_c * p), 0.f);
  spike_conv2d_forward(g, csr, w.data(), nullptr, o_c, ref.data(),
                       Workspace::tls());

  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(packed_words(in_n)));
  ASSERT_GE(spike_pack(x.data(), in_n, words.data()), 0);
  const std::int64_t ckk = g.col_rows();
  std::vector<float> wt(static_cast<std::size_t>(ckk * o_c));
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t r = 0; r < ckk; ++r) {
      wt[static_cast<std::size_t>(r * o_c + o)] =
          w.data()[o * ckk + r];
    }
  }
  std::vector<float> panel(static_cast<std::size_t>(p * o_c), 0.f);
  const std::vector<std::int32_t> taps = tap_table(g);
  const std::int64_t synops =
      spike_packed_conv2d_term(g, taps.data(), g.in_c, words.data(), nullptr,
                               wt.data(), o_c, panel.data());
  EXPECT_GT(synops, 0);
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t j = 0; j < p; ++j) {
      EXPECT_EQ(panel[static_cast<std::size_t>(j * o_c + o)],
                ref[static_cast<std::size_t>(o * p + j)])
          << "o=" << o << " j=" << j;
    }
  }
}

/// The packed term kernels' walk before tap tables: two divisions per
/// event and a stride test per kernel row and tap. Reference for the
/// table-driven kernels, which must visit the same events and taps in the
/// same order.
template <class W, class A>
std::int64_t division_walk(const ConvGeometry& g, std::int64_t src_c,
                           const std::uint64_t* words,
                           const std::int32_t* chrow, const W* weight,
                           std::int64_t out_c, bool depthwise, A* acc) {
  const std::int64_t k = g.kernel, s = g.stride;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t plane = g.in_h * g.in_w;
  std::int64_t synops = 0;
  for (std::int64_t flat = 0; flat < src_c * plane; ++flat) {
    if (((words[flat >> 6] >> (flat & 63)) & 1u) == 0) continue;
    const std::int64_t c = flat / plane;
    const std::int64_t iy = (flat - c * plane) / g.in_w;
    const std::int64_t ix = flat - c * plane - iy * g.in_w;
    const std::int64_t row = chrow != nullptr ? chrow[c] : c;
    if (row < 0) continue;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const std::int64_t ty = iy + g.pad - ky;
      if (ty < 0 || ty % s != 0 || ty / s >= ho) continue;
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const std::int64_t tx = ix + g.pad - kx;
        if (tx < 0 || tx % s != 0 || tx / s >= wo) continue;
        const std::int64_t opix = ty / s * wo + tx / s;
        const std::int64_t tap = ky * k + kx;
        if (depthwise) {
          acc[row * ho * wo + opix] += weight[row * k * k + tap];
          ++synops;
        } else {
          for (std::int64_t o = 0; o < out_c; ++o) {
            acc[opix * out_c + o] += weight[(row * k * k + tap) * out_c + o];
          }
          synops += out_c;
        }
      }
    }
  }
  return synops;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST_F(InferTest, TableDrivenPackedTermsMatchDivisionWalk) {
  // Kernels 1 and 3, and the composite 5 of a projection sunk under a
  // 3x3 consumer (stride and pad scaled by the projection stride 2);
  // strides 1 and 2 (4 for the composite), pads 0 and 1 (2); identity
  // and chrow maps with dropped (-1) channels.
  const ConvGeometry geoms[] = {
      {6, 9, 7, 1, 1, 0}, {6, 9, 7, 1, 2, 0}, {6, 9, 7, 3, 1, 1},
      {6, 9, 7, 3, 2, 1}, {6, 9, 7, 3, 1, 0}, {6, 9, 7, 3, 2, 0},
      {6, 9, 7, 5, 2, 2}, {6, 9, 7, 5, 4, 2}};
  const std::int64_t src_c = 5, o_c = 11;
  Rng rng(17);
  for (const ConvGeometry& g : geoms) {
    const std::int64_t numel = src_c * g.in_h * g.in_w;
    const std::int64_t p = g.out_h() * g.out_w();
    const std::int64_t kk = g.kernel * g.kernel;
    Tensor x = Tensor::bernoulli(Shape{numel}, rng, 0.3f);
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(packed_words(numel)));
    ASSERT_GE(spike_pack(x.data(), numel, words.data()), 0);
    std::vector<float> wf(static_cast<std::size_t>(g.in_c * kk * o_c));
    std::vector<std::int8_t> wq(wf.size());
    for (std::size_t i = 0; i < wf.size(); ++i) {
      wf[i] = rng.uniform(-1.f, 1.f);
      wq[i] = static_cast<std::int8_t>(rng.uniform(-127.49f, 127.49f));
    }
    const std::vector<std::int32_t> taps = tap_table(g);
    const std::vector<std::int32_t> remap = {4, -1, 0, 5, -1};
    for (const std::int32_t* chrow : {static_cast<const std::int32_t*>(nullptr),
                                      remap.data()}) {
      const std::string what = "k" + std::to_string(g.kernel) + " s" +
                               std::to_string(g.stride) + " pad" +
                               std::to_string(g.pad) +
                               (chrow != nullptr ? " chrow" : "");
      std::vector<float> fc(static_cast<std::size_t>(p * o_c), 0.f);
      std::vector<float> fc_ref = fc;
      EXPECT_EQ(spike_packed_conv2d_term(g, taps.data(), src_c, words.data(),
                                         chrow, wf.data(), o_c, fc.data()),
                division_walk(g, src_c, words.data(), chrow, wf.data(), o_c,
                              false, fc_ref.data()))
          << what;
      EXPECT_TRUE(same_bytes(fc, fc_ref)) << "fp32 conv " << what;

      std::vector<std::int32_t> qc(static_cast<std::size_t>(p * o_c), 0);
      std::vector<std::int32_t> qc_ref = qc;
      EXPECT_EQ(spike_packed_conv2d_term_i8(g, taps.data(), src_c,
                                            words.data(), chrow, wq.data(),
                                            o_c, qc.data()),
                division_walk(g, src_c, words.data(), chrow, wq.data(), o_c,
                              false, qc_ref.data()))
          << what;
      EXPECT_TRUE(same_bytes(qc, qc_ref)) << "int8 conv " << what;

      std::vector<float> fd(static_cast<std::size_t>(g.in_c * p), 0.f);
      std::vector<float> fd_ref = fd;
      EXPECT_EQ(spike_packed_depthwise_term(g, taps.data(), src_c,
                                            words.data(), chrow, wf.data(),
                                            fd.data()),
                division_walk(g, src_c, words.data(), chrow, wf.data(), 0,
                              true, fd_ref.data()))
          << what;
      EXPECT_TRUE(same_bytes(fd, fd_ref)) << "fp32 depthwise " << what;

      std::vector<std::int32_t> qd(static_cast<std::size_t>(g.in_c * p), 0);
      std::vector<std::int32_t> qd_ref = qd;
      EXPECT_EQ(spike_packed_depthwise_term_i8(g, taps.data(), src_c,
                                               words.data(), chrow, wq.data(),
                                               qd.data()),
                division_walk(g, src_c, words.data(), chrow, wq.data(), 0,
                              true, qd_ref.data()))
          << what;
      EXPECT_TRUE(same_bytes(qd, qd_ref)) << "int8 depthwise " << what;
    }
  }
}

// --- BN folding / training equivalence --------------------------------------

TEST_F(InferTest, FoldedPlanMatchesTrainingEval) {
  // BN scale folded into the weights reassociates per-tap products; the
  // membrane difference is bounded (documented in DESIGN.md §5g), checked
  // here through the head logits at 1e-4.
  for (const std::string model : {"single_block", "resnet18s"}) {
    ModelConfig cfg = small_cfg();
    Network net = build_model(model, cfg, default_adjacencies(model, cfg));
    const Shape in{1, cfg.in_channels, 8, 8};
    warm_bn_stats(net, in, 4);
    const auto xs = spike_inputs(in, 4, 0.25f, 21);
    const auto ref = training_eval(net, xs);

    Engine eng(infer::compile(net, in));
    const auto got = engine_eval(eng, xs);
    EXPECT_LE(max_step_diff(ref, got), 1e-4f) << model;
  }
}

TEST_F(InferTest, FoldedPlanMatchesTrainingEvalPlif) {
  ModelConfig cfg = small_cfg();
  cfg.neuron = NeuronKind::Plif;
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  warm_bn_stats(net, in, 4);
  const auto xs = spike_inputs(in, 4, 0.25f, 23);
  const auto ref = training_eval(net, xs);

  Engine eng(infer::compile(net, in));
  const auto got = engine_eval(eng, xs);
  EXPECT_LE(max_step_diff(ref, got), 1e-4f);
}

TEST_F(InferTest, NoFoldDensePlanIsBitwiseEqualToTraining) {
  // fold_bn = false keeps the training layout: the engine's dense im2col +
  // GEMM and the training layers' direct conv kernels sum each output's
  // products in the same order from +0, and both sides share the BN-eval
  // expressions, pooling loop and LIF update, so with both sides forced
  // dense the outputs must agree exactly.
  SparseExec::set_threshold(0.f);  // training-graph side stays dense
  for (const std::string model : {"single_block", "resnet18s",
                                  "resnet18s-dsc", "densenet121s",
                                  "mobilenetv2s"}) {
    ModelConfig cfg = small_cfg();
    Network net = build_case(model, cfg);
    const Shape in{1, cfg.in_channels, 8, 8};
    warm_bn_stats(net, in, 4);
    const auto xs = spike_inputs(in, 4, 0.25f, 31);
    const auto ref = firing_training_eval(net, xs, model);

    CompileOptions opts;
    opts.fold_bn = false;
    Engine eng(infer::compile(net, in, opts), ExecOptions{/*threshold=*/0.f});
    const auto got = engine_eval(eng, xs);
    EXPECT_EQ(max_step_diff(ref, got), 0.f) << model;
    EXPECT_GT(eng.stats().dense_dispatches, 0);
  }
}

// --- packed vs training event path vs dense ---------------------------------

TEST_F(InferTest, NoFoldPackedPlanIsBitwiseEqualToSparseTraining) {
  // The training graph's event path is the packed kernels' reference:
  // with both sides on their event kernels wherever the input spikes
  // (threshold 1), a no-fold plan visits the same events in the same
  // order and replays the training arithmetic — exact agreement across
  // every family's join types.
  SparseExec::set_threshold(1.f);
  for (const std::string model : {"single_block", "single_block-chain",
                                  "resnet18s", "resnet18s-dsc",
                                  "densenet121s", "mobilenetv2s"}) {
    ModelConfig cfg = small_cfg();
    Network net = build_case(model, cfg);
    const Shape in{1, cfg.in_channels, 8, 8};
    warm_bn_stats(net, in, 4);
    const auto xs = spike_inputs(in, 4, 0.15f, 41);
    const auto ref = firing_training_eval(net, xs, model);

    CompileOptions opts;
    opts.fold_bn = false;
    Engine eng(infer::compile(net, in, opts), ExecOptions{/*threshold=*/1.f});
    const auto got = engine_eval(eng, xs);
    EXPECT_GT(eng.stats().packed_dispatches, 0) << model;
    EXPECT_EQ(max_step_diff(ref, got), 0.f) << model;
  }
}

TEST_F(InferTest, PackedMatchesDenseAcrossJoinTypes) {
  // ASC joins change only the accumulation ORDER between the packed
  // (term-by-term) and dense (pre-assembled) paths, so agreement is to
  // rounding; DSC concat terms and strided/projection blocks ride along.
  for (const std::string model :
       {"resnet18s", "densenet121s", "mobilenetv2s"}) {
    ModelConfig cfg = small_cfg();
    Network net = build_model(model, cfg, default_adjacencies(model, cfg));
    const Shape in{1, cfg.in_channels, 8, 8};
    warm_bn_stats(net, in, 4);
    const auto xs = spike_inputs(in, 4, 0.15f, 43);
    const infer::PlanPtr plan = infer::compile(net, in);

    Engine packed_eng(plan, ExecOptions{/*threshold=*/1.f});
    const auto packed = engine_eval(packed_eng, xs);
    EXPECT_GT(packed_eng.stats().packed_dispatches, 0) << model;

    Engine dense_eng(plan, ExecOptions{/*threshold=*/0.f});
    const auto dense = engine_eval(dense_eng, xs);

    EXPECT_LE(max_step_diff(packed, dense), 1e-4f) << model;
  }
}

// --- plan invariants --------------------------------------------------------

TEST_F(InferTest, BufferPlanNeverAliasesLiveValues) {
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  const Plan plan = infer::compile_plan(net, in);
  ASSERT_GT(plan.ops.size(), 8u);

  auto overlap = [](std::int64_t a0, std::int64_t a1, std::int64_t b0,
                    std::int64_t b1) { return a0 < b1 && b0 < a1; };
  for (std::size_t i = 0; i < plan.values.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.values.size(); ++j) {
      const auto& a = plan.values[i];
      const auto& b = plan.values[j];
      const int a_last = std::max(a.last_use, a.def);
      const int b_last = std::max(b.last_use, b.def);
      const bool live_together = a.def <= b_last && b.def <= a_last;
      if (!live_together) continue;
      EXPECT_FALSE(overlap(a.dense_off, a.dense_off + a.floats, b.dense_off,
                           b.dense_off + b.floats))
          << "float arena aliasing between values " << i << " and " << j;
      if (a.words > 0 && b.words > 0) {
        EXPECT_FALSE(overlap(a.packed_off, a.packed_off + a.words,
                             b.packed_off, b.packed_off + b.words))
            << "word arena aliasing between values " << i << " and " << j;
      }
    }
  }
  // Arena sizes cover every placed value.
  for (const auto& v : plan.values) {
    EXPECT_LE(v.dense_off + v.floats, plan.float_arena);
    if (v.words > 0) {
      EXPECT_LE(v.packed_off + v.words, plan.word_arena);
    }
  }
}

TEST_F(InferTest, PackedSteadyStateIsAllocationFree) {
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  Engine eng(infer::compile(net, in), ExecOptions{/*threshold=*/1.f});

  const auto xs = spike_inputs(in, 6, 0.15f, 51);
  Tensor out(eng.plan().output_shape);
  eng.step(xs[0], &out);
  eng.step(xs[1], &out);

  // The packed path never touches the Workspace arena, and all engine
  // buffers were preallocated from the plan's high-water sizes — further
  // steps must not trigger a single heap allocation through it.
  const std::size_t before = Workspace::tls().heap_allocs();
  for (std::size_t t = 2; t < xs.size(); ++t) eng.step(xs[t], &out);
  EXPECT_EQ(Workspace::tls().heap_allocs(), before);
  EXPECT_EQ(eng.stats().steps, static_cast<std::int64_t>(xs.size()));
}

TEST_F(InferTest, RecurrentEdgesAreRejected) {
  ModelConfig cfg = small_cfg();
  auto specs = single_block_specs(cfg);
  ASSERT_EQ(specs.size(), 1u);
  Adjacency adj = Adjacency::chain(specs[0].depth());
  adj.set_recurrent(2, 2, SkipType::ASC);
  Network net = build_single_block(cfg, {adj});
  const Shape in{1, cfg.in_channels, 8, 8};
  EXPECT_THROW(infer::compile_plan(net, in), std::invalid_argument);
}

TEST_F(InferTest, CompiledCheckpointRoundTrip) {
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  warm_bn_stats(net, in, 4);
  const std::string path =
      ::testing::TempDir() + "/infer_roundtrip.snnskip2";
  ASSERT_TRUE(save_network(path, net));

  ModelConfig other = cfg;
  other.seed = 1234;  // different init — load must overwrite everything
  Network loaded =
      build_model("resnet18s", other, default_adjacencies("resnet18s", cfg));
  ASSERT_GT(load_network(path, loaded), 0u);
  std::remove(path.c_str());

  const auto xs = spike_inputs(in, 4, 0.2f, 61);
  Engine a(infer::compile(net, in));
  Engine b(infer::compile(loaded, in));
  EXPECT_EQ(max_step_diff(engine_eval(a, xs), engine_eval(b, xs)), 0.f);
}

TEST_F(InferTest, StatsAndEnergyAccounting) {
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  Engine eng(infer::compile(net, in), ExecOptions{/*threshold=*/1.f});
  engine_eval(eng, spike_inputs(in, 4, 0.2f, 71));

  const infer::ExecStats& st = eng.stats();
  EXPECT_EQ(st.steps, 4);
  EXPECT_GT(st.packed_dispatches, 0);
  EXPECT_GT(st.spikes, 0);
  EXPECT_GT(st.synops, 0);      // exact popcount-driven accumulates
  EXPECT_GT(st.dense_macs, 0);  // head linear (and proj convs) run dense
  const double e = st.energy_pj();
  EXPECT_GT(e, 0.0);
  EXPECT_NEAR(e, 0.9 * static_cast<double>(st.synops) +
                     4.6 * static_cast<double>(st.dense_macs),
              1e-6 * e);

  eng.reset_stats();
  EXPECT_EQ(eng.stats().steps, 0);
}

// --- per-engine ExecOptions (ISSUE 7) ---------------------------------------

TEST_F(InferTest, ConcurrentEnginesWithDistinctOptionsMatchSerial) {
  // N threads, each its own Engine over one shared plan with a different
  // dispatch configuration, must reproduce the serial single-engine runs
  // BITWISE — the acceptance bar for removing the process-global mutable
  // execution config (no hidden shared state left to race on).
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  warm_bn_stats(net, in, 4);
  const infer::PlanPtr plan = infer::compile(net, in);

  const std::vector<ExecOptions> configs = {
      {/*threshold=*/1.f},
      {/*threshold=*/0.1f},
      {/*threshold=*/0.f},
      {/*threshold=*/0.25f},
  };
  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::vector<Tensor>> serial(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    inputs.push_back(spike_inputs(in, 4, 0.2f, 90 + i));
    Engine eng(plan, configs[i]);
    serial[i] = engine_eval(eng, inputs[i]);
  }

  std::vector<std::vector<Tensor>> threaded(configs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back([&, i] {
      Engine eng(plan, configs[i]);
      threaded[i] = engine_eval(eng, inputs[i]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(max_step_diff(serial[i], threaded[i]), 0.f)
        << "config " << i << " diverged under concurrency";
  }
}

// --- int8 quantized plans (ISSUE 10) ----------------------------------------

infer::QuantProfile calibrate(Network& net, const Shape& in,
                              std::int64_t steps, std::uint64_t seed) {
  const infer::PlanPtr fplan = infer::compile(net, in);
  Rng rng(seed);
  std::vector<std::vector<Tensor>> seqs(1);
  for (std::int64_t t = 0; t < steps; ++t) {
    seqs[0].push_back(Tensor::bernoulli(in, rng, 0.25f));
  }
  return infer::calibrate_quant(fplan, seqs);
}

std::int64_t argmax_of_sum(const std::vector<Tensor>& outs) {
  const std::int64_t n = outs.front().numel();
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  for (const Tensor& o : outs) {
    for (std::int64_t i = 0; i < n; ++i) {
      acc[static_cast<std::size_t>(i)] += o.data()[i];
    }
  }
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < n; ++i) {
    if (acc[static_cast<std::size_t>(i)] >
        acc[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

TEST_F(InferTest, Int8PlanTracksFp32AcrossAddJoins) {
  // The rescale composition on ASC (addition) joins: every sunk skip term
  // shares the consumer's per-channel scale panel, so skips never force a
  // dequantized detour. The int8 plan must track the fp32 plan to the
  // quantization budget — per-weight error is at most half a step
  // (S[o]/2), so summed head logits agree on their argmax and stay within
  // a small relative band.
  for (const std::string model : {"single_block", "resnet18s"}) {
    ModelConfig cfg = small_cfg();
    Network net = build_model(model, cfg, default_adjacencies(model, cfg));
    const Shape in{1, cfg.in_channels, 8, 8};
    warm_bn_stats(net, in, 4);
    const infer::QuantProfile prof = calibrate(net, in, 6, 113);

    CompileOptions qopts;
    qopts.precision = infer::Precision::Int8;
    qopts.quant = &prof;
    Engine fp(infer::compile(net, in));
    Engine q(infer::compile(net, in, qopts));
    EXPECT_EQ(q.plan().precision, infer::Precision::Int8);

    int agree = 0;
    const int trials = 8;
    float worst = 0.f, scale = 0.f;
    for (int s = 0; s < trials; ++s) {
      const auto xs = spike_inputs(in, 4, 0.25f, 200 + s);
      const auto ref = engine_eval(fp, xs);
      const auto got = engine_eval(q, xs);
      agree += argmax_of_sum(ref) == argmax_of_sum(got) ? 1 : 0;
      worst = std::max(worst, max_step_diff(ref, got));
      for (const Tensor& o : ref) {
        for (std::int64_t i = 0; i < o.numel(); ++i) {
          scale = std::max(scale, std::fabs(o.data()[i]));
        }
      }
    }
    EXPECT_GE(agree, trials - 1) << model;
    EXPECT_LE(worst, 0.05f * std::max(1.f, scale)) << model;
  }
}

TEST_F(InferTest, Int8PackedMatchesDenseBitwiseOnSpikingOps) {
  // Chain adjacency: every conv input is binary spikes, so the
  // activation step is exactly 1.0, quantization is lossless, and the
  // packed integer event walk and the dense im2row + int8 GEMM route
  // must agree BITWISE (int32 addition is associative — dispatch order
  // cannot matter). The head linear consumes pooled analog input but
  // runs the identical dense quantized path in both engines.
  ModelConfig cfg = small_cfg();
  Network net = build_model("single_block", cfg, {Adjacency::chain(4)});
  const Shape in{1, cfg.in_channels, 8, 8};
  warm_bn_stats(net, in, 4);
  const infer::QuantProfile prof = calibrate(net, in, 6, 117);

  CompileOptions qopts;
  qopts.precision = infer::Precision::Int8;
  qopts.quant = &prof;
  const infer::PlanPtr plan = infer::compile(net, in, qopts);

  const auto xs = spike_inputs(in, 4, 0.2f, 211);
  Engine packed_eng(plan, ExecOptions{/*threshold=*/1.f});
  const auto packed = engine_eval(packed_eng, xs);
  EXPECT_GT(packed_eng.stats().packed_dispatches, 0);

  Engine dense_eng(plan, ExecOptions{/*threshold=*/0.f});
  const auto dense = engine_eval(dense_eng, xs);
  EXPECT_GT(dense_eng.stats().dense_dispatches, 0);

  EXPECT_EQ(max_step_diff(packed, dense), 0.f);
}

TEST_F(InferTest, Int8PlanShrinksWeightMemory) {
  // The acceptance floor from ISSUE 10: one int8 copy of each weight
  // panel plus per-timestep float scale/bias vectors must undercut the
  // fp32 plan's per-timestep folded weight copies by at least 0.30x.
  ModelConfig cfg = small_cfg();
  Network net =
      build_model("resnet18s", cfg, default_adjacencies("resnet18s", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  warm_bn_stats(net, in, 4);
  const infer::QuantProfile prof = calibrate(net, in, 6, 119);

  CompileOptions qopts;
  qopts.precision = infer::Precision::Int8;
  qopts.quant = &prof;
  const infer::PlanPtr fp = infer::compile(net, in);
  const infer::PlanPtr q = infer::compile(net, in, qopts);
  ASSERT_GT(fp->weight_bytes(), 0);
  EXPECT_LE(static_cast<double>(q->weight_bytes()),
            0.30 * static_cast<double>(fp->weight_bytes()));
}

TEST_F(InferTest, Int8PlanRejectsNoFoldAndAnalogInput) {
  ModelConfig cfg = small_cfg();
  Network net = build_model("single_block", cfg,
                            default_adjacencies("single_block", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};

  // BN must be folded: the scheme absorbs the per-timestep BN transform
  // into the requantization scale — without folding there is nothing to
  // absorb it into.
  CompileOptions nofold;
  nofold.precision = infer::Precision::Int8;
  nofold.fold_bn = false;
  EXPECT_THROW(infer::compile_plan(net, in, nofold), std::invalid_argument);

  // Analog (non-binary) network input would be integer-rounded by the
  // stem's exact unit step — rejected rather than silently degraded.
  warm_bn_stats(net, in, 4);
  const infer::QuantProfile prof = calibrate(net, in, 4, 121);
  CompileOptions qopts;
  qopts.precision = infer::Precision::Int8;
  qopts.quant = &prof;
  Engine q(infer::compile(net, in, qopts));
  Tensor analog(in);
  analog.fill(0.5f);
  Tensor out;
  EXPECT_THROW(q.step(analog, &out), std::invalid_argument);
}

TEST_F(InferTest, InputShapeMismatchThrows) {
  ModelConfig cfg = small_cfg();
  Network net = build_model("single_block", cfg,
                            default_adjacencies("single_block", cfg));
  const Shape in{1, cfg.in_channels, 8, 8};
  Engine eng(infer::compile(net, in));
  Tensor bad(Shape{1, cfg.in_channels, 4, 4});
  Tensor out;
  EXPECT_THROW(eng.step(bad, &out), std::invalid_argument);
}

TEST_F(InferTest, CompileRejectsBatchAboveOne) {
  // A plan runs one request per step: the engine has no batch dimension,
  // so a (2, C, H, W) compile shape is refused up front.
  ModelConfig cfg = small_cfg();
  Network net = build_model("single_block", cfg,
                            default_adjacencies("single_block", cfg));
  EXPECT_THROW(infer::compile_plan(net, Shape{2, cfg.in_channels, 8, 8}),
               std::invalid_argument);
  EXPECT_THROW(infer::compile_plan(net, Shape{cfg.in_channels, 8, 8}),
               std::invalid_argument);
}

}  // namespace
}  // namespace snnskip
