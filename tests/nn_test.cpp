// Behavioral tests for the layer library: shapes, known-value forwards,
// batch-norm statistics, loss gradients, optimizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "nn/activations.h"
#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "nn/depthwise_conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "telemetry/telemetry.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"

namespace snnskip {
namespace {

// Restores the sparse-dispatch threshold on scope exit so tests can force
// either path (1 = event kernels, 0 = dense) without leaking state into
// later tests.
class SparseExecGuard {
 public:
  SparseExecGuard() : threshold_(SparseExec::threshold()) {}
  ~SparseExecGuard() { SparseExec::set_threshold(threshold_); }

 private:
  float threshold_;
};

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, false, rng);
  EXPECT_EQ(conv.output_shape(Shape{4, 3, 16, 16}), (Shape{4, 8, 8, 8}));
}

TEST(Conv2d, MacsFormula) {
  Rng rng(2);
  Conv2d conv(2, 4, 3, 1, 1, false, rng);
  // N * out_c * (in_c*k*k) * (out_h*out_w) = 1*4*18*16
  EXPECT_EQ(conv.macs(Shape{1, 2, 4, 4}), 4 * 18 * 16);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(3);
  Conv2d conv(1, 1, 1, 1, 0, false, rng);
  conv.weight().value.fill(1.f);
  Tensor x = Tensor::randn(Shape{1, 1, 3, 3}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_LT(Tensor::max_abs_diff(x, y), 1e-6f);
}

TEST(Conv2d, KnownAveragingKernel) {
  Rng rng(4);
  Conv2d conv(1, 1, 3, 1, 0, false, rng);
  conv.weight().value.fill(1.f / 9.f);
  Tensor x = Tensor::full(Shape{1, 1, 3, 3}, 2.f);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 2.f, 1e-6f);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(5);
  Conv2d conv(1, 2, 1, 1, 0, true, rng);
  conv.weight().value.fill(0.f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -0.5f;
  Tensor x = Tensor::randn(Shape{1, 1, 2, 2}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1, 1}), -0.5f);
}

TEST(Conv2d, EvalForwardSavesNoContext) {
  Rng rng(6);
  Conv2d conv(1, 1, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  conv.forward(x, /*train=*/false);
  // A backward now would be a bug; reset_state keeps it legal to continue.
  conv.reset_state();
  conv.forward(x, /*train=*/true);
  Tensor g = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  EXPECT_NO_THROW(conv.backward(g));
}

// Outputs below the GEMM tile width run the dense path as one GEMM over
// the whole batch. It must agree to the last bit with one image at a time
// (dW and db accumulated in image order onto the gradient an earlier
// timestep left) and, forward, with the per-image im2col + gemm lowering.
struct SmallOutputCase {
  std::int64_t hw, stride;  // 3x3 kernel, pad 1
  std::int64_t n;
};

class Conv2dSmallOutput : public ::testing::TestWithParam<SmallOutputCase> {};

TEST_P(Conv2dSmallOutput, BatchMatchesOneImageAtATime) {
  const SmallOutputCase c = GetParam();
  SparseExecGuard guard;
  SparseExec::set_threshold(0.f);  // dense everywhere
  const std::int64_t in_c = 5, out_c = 18;
  Rng rng(911);
  Conv2d conv(in_c, out_c, 3, c.stride, 1, /*bias=*/true, rng);
  conv.bias().value = Tensor::randn(Shape{out_c}, rng);
  const Shape xs{c.n, in_c, c.hw, c.hw};
  Tensor x = Tensor::randn(xs, rng);
  Tensor g = Tensor::randn(conv.output_shape(xs), rng);
  const std::int64_t img_in = in_c * c.hw * c.hw;
  const std::int64_t img_out = g.numel() / c.n;
  const Tensor dw0 = Tensor::randn(conv.weight().grad.shape(), rng);
  const Tensor db0 = Tensor::randn(Shape{out_c}, rng);

  conv.weight().grad = dw0;
  conv.bias().grad = db0;
  const Tensor y = conv.forward(x, /*train=*/true);
  const Tensor dx = conv.backward(g);
  const Tensor dw = conv.weight().grad;
  const Tensor db = conv.bias().grad;

  conv.weight().grad = dw0;
  conv.bias().grad = db0;
  const ConvGeometry geom{in_c, c.hw, c.hw, 3, c.stride, 1};
  Tensor cols(Shape{geom.col_rows(), geom.col_cols()});
  for (std::int64_t img = 0; img < c.n; ++img) {
    Tensor xi(Shape{1, in_c, c.hw, c.hw});
    std::copy_n(x.data() + img * img_in, img_in, xi.data());
    Tensor gi(conv.output_shape(xi.shape()));
    std::copy_n(g.data() + img * img_out, img_out, gi.data());
    const Tensor yi = conv.forward(xi, /*train=*/true);
    const Tensor dxi = conv.backward(gi);
    im2col(geom, xi.data(), cols.data());
    Tensor ref(Shape{out_c, geom.col_cols()});
    gemm(out_c, geom.col_cols(), geom.col_rows(), 1.f,
         conv.weight().value.data(), cols.data(), 0.f, ref.data());
    for (std::int64_t k = 0; k < img_out; ++k) {
      const auto q = static_cast<std::size_t>(img * img_out + k);
      const auto kk = static_cast<std::size_t>(k);
      ASSERT_EQ(y[q], yi[kk]) << "image " << img << " out " << k;
      ASSERT_EQ(y[q], ref[kk] + conv.bias().value[static_cast<std::size_t>(
                                    k / geom.col_cols())])
          << "image " << img << " out " << k;
    }
    for (std::int64_t k = 0; k < img_in; ++k) {
      ASSERT_EQ(dx[static_cast<std::size_t>(img * img_in + k)],
                dxi[static_cast<std::size_t>(k)])
          << "image " << img << " dX " << k;
    }
  }
  EXPECT_EQ(Tensor::max_abs_diff(dw, conv.weight().grad), 0.f);
  EXPECT_EQ(Tensor::max_abs_diff(db, conv.bias().grad), 0.f);
}

INSTANTIATE_TEST_SUITE_P(
    Pixels, Conv2dSmallOutput,
    ::testing::Values(SmallOutputCase{1, 1, 1}, SmallOutputCase{1, 1, 4},
                      SmallOutputCase{2, 2, 25},  // HoWo = 1, stride 2
                      SmallOutputCase{2, 1, 1}, SmallOutputCase{4, 2, 4},
                      SmallOutputCase{2, 1, 25},  // HoWo = 4
                      SmallOutputCase{3, 1, 1}, SmallOutputCase{5, 2, 4},
                      SmallOutputCase{3, 1, 25}));  // HoWo = 9

TEST(DepthwiseConv2d, OutputShapeAndMacs) {
  Rng rng(7);
  DepthwiseConv2d conv(4, 3, 2, 1, false, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 4, 8, 8}), (Shape{2, 4, 4, 4}));
  EXPECT_EQ(conv.macs(Shape{1, 4, 8, 8}), 4 * 9 * 16);
}

TEST(DepthwiseConv2d, ChannelsAreIndependent) {
  Rng rng(8);
  DepthwiseConv2d conv(2, 3, 1, 1, false, rng);
  Tensor x(Shape{1, 2, 3, 3});
  // Only channel 0 is non-zero; output channel 1 must stay zero.
  for (std::int64_t i = 0; i < 9; ++i) x[static_cast<std::size_t>(i)] = 1.f;
  Tensor y = conv.forward(x, false);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(9 + i)], 0.f);
  }
}

TEST(Linear, KnownForward) {
  Rng rng(9);
  Linear lin(2, 2, true, rng);
  lin.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  lin.bias().value = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  Tensor x(Shape{1, 2}, std::vector<float>{1.f, 1.f});
  Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
}

TEST(Flatten, ShapeRoundTrip) {
  Flatten fl;
  Rng rng(10);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 5}, rng);
  Tensor y = fl.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor gx = fl.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(AvgPool2d, AveragesWindows) {
  AvgPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 6});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.f);
}

TEST(AvgPool2d, CeilModeRoundsUpAndAveragesPartialWindows) {
  AvgPool2d pool(2, 2, /*ceil_mode=*/true);
  // 3x3 input -> 2x2 output; the edge windows only cover valid elements.
  Tensor x(Shape{1, 1, 3, 3},
           std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(pool.output_shape(x.shape()), (Shape{1, 1, 2, 2}));
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 3.f);    // (1+2+4+5)/4
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 1}), 4.5f);   // (3+6)/2
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 0}), 7.5f);   // (7+8)/2
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 9.f);    // (9)/1
}

TEST(AvgPool2d, CeilModeMatchesStridedConvArithmetic) {
  // ceil-mode pool output == ceil(H/stride) for kernel == stride.
  AvgPool2d pool(2, 2, true);
  for (std::int64_t h : {2, 3, 4, 5, 7, 12, 13}) {
    const Shape out = pool.output_shape(Shape{1, 1, h, h});
    EXPECT_EQ(out[2], (h + 1) / 2) << "h=" << h;
  }
}

TEST(AvgPool2d, CeilModeBackwardDistributesByWindowSize) {
  AvgPool2d pool(2, 2, true);
  Tensor x = Tensor::full(Shape{1, 1, 3, 3}, 1.f);
  pool.forward(x, true);
  Tensor g = Tensor::full(Shape{1, 1, 2, 2}, 1.f);
  Tensor gx = pool.backward(g);
  // Corner (2,2) window has one element: full gradient lands there.
  EXPECT_FLOAT_EQ(gx.at({0, 0, 2, 2}), 1.f);
  EXPECT_FLOAT_EQ(gx.at({0, 0, 0, 0}), 0.25f);
  // Total gradient is conserved.
  EXPECT_NEAR(gx.sum(), 4.0, 1e-6);
}

TEST(MaxPool2d, TakesMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 7.f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  pool.forward(x, true);
  Tensor g = Tensor::full(Shape{1, 1, 1, 1}, 2.f);
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.f);
  EXPECT_FLOAT_EQ(gx[1], 2.f);
  EXPECT_FLOAT_EQ(gx[2], 0.f);
}

TEST(GlobalAvgPool2d, CollapsesPlanes) {
  GlobalAvgPool2d gap;
  Tensor x(Shape{1, 2, 2, 2},
           std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 10.f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x(Shape{4}, std::vector<float>{-1.f, 0.f, 2.f, -3.f});
  Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[2], 2.f);
  EXPECT_FLOAT_EQ(y[3], 0.f);
}

TEST(BatchNormTT, NormalizesTrainBatch) {
  Rng rng(11);
  BatchNormTT bn(2, 1);
  Tensor x = Tensor::randn(Shape{8, 2, 4, 4}, rng, 3.f, 2.f);
  Tensor y = bn.forward(x, true);
  // Per-channel output should be ~N(0,1) (gamma=1, beta=0 at init).
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::int64_t count = 0;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const float v = y.at({n, c, i / 4, i % 4});
        mean += v;
        ++count;
      }
    }
    mean /= count;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t i = 0; i < 16; ++i) {
        const double d = y.at({n, c, i / 4, i % 4}) - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
  bn.reset_state();
}

TEST(BatchNormTT, PerTimestepParametersAreSeparate) {
  BatchNormTT bn(3, 4);
  // 4 timesteps x (gamma + beta) = 8 parameters of size 3.
  EXPECT_EQ(bn.parameters().size(), 8u);
}

TEST(BatchNormTT, TimestepCounterAdvancesAndResets) {
  Rng rng(12);
  BatchNormTT bn(1, 2);
  Tensor x = Tensor::randn(Shape{4, 1, 2, 2}, rng);
  bn.forward(x, true);   // t=0
  bn.forward(x, true);   // t=1
  bn.forward(x, true);   // t=2 -> clamps to slot 1 without crashing
  bn.reset_state();
  EXPECT_NO_THROW(bn.forward(x, false));  // eval from t=0 again
  bn.reset_state();
}

TEST(BatchNormTT, EvalUsesRunningStats) {
  Rng rng(13);
  BatchNormTT bn(1, 1);
  // Train on shifted data a few times so running stats move.
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn(Shape{16, 1, 2, 2}, rng, 5.f, 1.f);
    bn.forward(x, true);
    bn.reset_state();
  }
  Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, 5.f);
  Tensor y = bn.forward(probe, false);
  // A value at the running mean normalizes to ~0.
  EXPECT_NEAR(y[0], 0.f, 0.2f);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 4});
  const LossResult r = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradientIsSoftmaxMinusOneHotOverN) {
  Tensor logits(Shape{1, 2}, std::vector<float>{0.f, 0.f});
  const LossResult r = cross_entropy(logits, {1});
  EXPECT_NEAR(r.grad_logits[0], 0.5f, 1e-5);
  EXPECT_NEAR(r.grad_logits[1], -0.5f, 1e-5);
}

TEST(CrossEntropy, CountsCorrectPredictions) {
  Tensor logits(Shape{2, 2}, std::vector<float>{3.f, 0.f, 0.f, 3.f});
  const LossResult r = cross_entropy(logits, {0, 0});
  EXPECT_EQ(r.correct, 1u);
}

TEST(Accuracy, Computes) {
  Tensor logits(Shape{3, 2}, std::vector<float>{1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Parameter p("w", Tensor::full(Shape{1}, 1.f));
  p.grad[0] = 2.f;
  Sgd opt({&p}, 0.1f, 0.f, 0.f);
  opt.step();
  EXPECT_NEAR(p.value[0], 0.8f, 1e-6f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p("w", Tensor::full(Shape{1}, 0.f));
  Sgd opt({&p}, 1.f, 0.5f, 0.f);
  p.grad[0] = 1.f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(p.value[0], -1.f, 1e-6f);
  p.grad[0] = 1.f;
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinks) {
  Parameter p("w", Tensor::full(Shape{1}, 10.f));
  p.grad[0] = 0.f;
  Sgd opt({&p}, 0.1f, 0.f, 0.5f);
  opt.step();
  EXPECT_NEAR(p.value[0], 10.f - 0.1f * 0.5f * 10.f, 1e-5f);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction the first Adam step is ~lr * sign(grad).
  Parameter p("w", Tensor::full(Shape{1}, 0.f));
  p.grad[0] = 3.f;
  Adam opt({&p}, 0.01f);
  opt.step();
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 — gradient 2(w-3).
  Parameter p("w", Tensor::full(Shape{1}, 0.f));
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    p.zero_grad();
    p.grad[0] = 2.f * (p.value[0] - 3.f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.f, 0.05f);
}

TEST(Optimizer, ZeroGradClears) {
  Parameter p("w", Tensor::full(Shape{3}, 1.f));
  p.grad.fill(7.f);
  Sgd opt({&p}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(p.grad[0], 0.f);
  EXPECT_FLOAT_EQ(p.grad[2], 0.f);
}

// --- sparse-vs-dense path equivalence (ISSUE 1) --------------------------
// Random binary spike tensors across the density sweep must produce the
// same forward outputs whether the event-driven path or the dense GEMM
// path runs. The sweep forces the sparse dispatch with threshold=1.0 and
// compares against the same layer at threshold 0 (dense everywhere).

class SparsePathDensity : public ::testing::TestWithParam<double> {};

TEST_P(SparsePathDensity, Conv2dMatchesDense) {
  const float density = static_cast<float>(GetParam());
  SparseExecGuard guard;
  Rng rng(901);
  Conv2d conv(4, 6, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 4, 7, 7}, rng, density);

  SparseExec::set_threshold(1.f);
  Tensor sparse = conv.forward(x, false);
  SparseExec::set_threshold(0.f);
  Tensor dense = conv.forward(x, false);
  // Both paths add the same products in the same order from +0.
  EXPECT_EQ(Tensor::max_abs_diff(sparse, dense), 0.f);
}

TEST_P(SparsePathDensity, LinearMatchesDense) {
  const float density = static_cast<float>(GetParam());
  SparseExecGuard guard;
  Rng rng(902);
  Linear lin(12, 9, true, rng);
  Tensor x = Tensor::bernoulli(Shape{5, 12}, rng, density);

  SparseExec::set_threshold(1.f);
  Tensor sparse = lin.forward(x, false);
  SparseExec::set_threshold(0.f);
  Tensor dense = lin.forward(x, false);
  EXPECT_LT(Tensor::max_abs_diff(sparse, dense), 1e-5f);
}

TEST_P(SparsePathDensity, DepthwiseMatchesDense) {
  const float density = static_cast<float>(GetParam());
  SparseExecGuard guard;
  Rng rng(903);
  DepthwiseConv2d conv(5, 3, 2, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 5, 8, 8}, rng, density);

  SparseExec::set_threshold(1.f);
  Tensor sparse = conv.forward(x, false);
  SparseExec::set_threshold(0.f);
  Tensor dense = conv.forward(x, false);
  EXPECT_LT(Tensor::max_abs_diff(sparse, dense), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(DensitySweep, SparsePathDensity,
                         ::testing::Values(0.0, 0.05, 0.5, 1.0));

TEST(SparsePath, Conv2dTrainBackwardMatchesDensePath) {
  // The sparse forward must not change training: identical weights and
  // inputs give bitwise identical gradients whichever forward path ran (the
  // event dW and the direct dW add the same products in the same order).
  SparseExecGuard guard;
  Rng rng1(904), rng2(904);
  Conv2d conv_s(3, 4, 3, 1, 1, true, rng1);
  Conv2d conv_d(3, 4, 3, 1, 1, true, rng2);
  Rng data_rng(77);
  Tensor x = Tensor::bernoulli(Shape{2, 3, 6, 6}, data_rng, 0.1f);
  Tensor go = Tensor::randn(Shape{2, 4, 6, 6}, data_rng);

  SparseExec::set_threshold(1.f);
  (void)conv_s.forward(x, true);
  Tensor gi_s = conv_s.backward(go);

  SparseExec::set_threshold(0.f);
  (void)conv_d.forward(x, true);
  Tensor gi_d = conv_d.backward(go);

  EXPECT_EQ(Tensor::max_abs_diff(gi_s, gi_d), 0.f);
  EXPECT_EQ(Tensor::max_abs_diff(conv_s.weight().grad, conv_d.weight().grad),
            0.f);
  EXPECT_EQ(Tensor::max_abs_diff(conv_s.bias().grad, conv_d.bias().grad),
            0.f);
}

TEST(SparsePath, DispatchRespectsThreshold) {
  SparseExecGuard guard;
  SparseExec::set_threshold(0.25f);
  Telemetry::reset();
  Telemetry::set_enabled(true);
  Rng rng(906);
  Conv2d conv(4, 4, 3, 1, 1, false, rng);
  Tensor sparse_x = Tensor::bernoulli(Shape{1, 4, 8, 8}, rng, 0.05f);
  Tensor dense_x = Tensor::full(Shape{1, 4, 8, 8}, 1.f);
  (void)conv.forward(sparse_x, false);
  (void)conv.forward(dense_x, false);
  std::map<std::string, double> c = Telemetry::counters();
  Telemetry::set_enabled(false);
  Telemetry::reset();
  EXPECT_EQ(c["dispatch.sparse"], 1.0);
  EXPECT_EQ(c["dispatch.dense"], 1.0);
  // Achieved density pools both inputs — the same nnz/elements definition
  // as the firing rate.
  const double density = c["dispatch.nnz"] / c["dispatch.elements"];
  EXPECT_GT(density, 0.4);
  EXPECT_LT(density, 0.6);
}

TEST(SparsePath, EvalSteadyStateStopsAllocating) {
  // The arena high-water mark must stabilize after the first timestep:
  // repeated eval-mode forwards perform no further heap allocations for
  // scratch (the im2col buffer used to be a fresh Tensor per call).
  SparseExecGuard guard;
  SparseExec::set_threshold(0.f);  // dense path exercises the cols buffer
  Rng rng(907);
  Conv2d conv(8, 8, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn(Shape{2, 8, 10, 10}, rng);
  Workspace& ws = Workspace::tls();
  (void)conv.forward(x, false);
  (void)conv.forward(x, false);  // possible block coalesce
  const std::size_t allocs = ws.heap_allocs();
  const std::size_t hw = ws.high_water();
  for (int t = 0; t < 10; ++t) (void)conv.forward(x, false);
  EXPECT_EQ(ws.heap_allocs(), allocs);
  EXPECT_EQ(ws.high_water(), hw);
}

}  // namespace
}  // namespace snnskip
