// Event-driven sparse BPTT backward (ISSUE 4): the sparse dW/dX kernels
// promise BIT-FOR-BIT equality with the dense gemm/direct-loop paths, at
// any thread-count partitioning. These tests pin that contract:
//
//   - Conv2d / Linear / DepthwiseConv2d sparse-vs-dense gradient equality
//     over random spike tensors and geometries (stride 2, 1x1, no-pad)
//   - invariance under 1/2/4-way parallel_for partitions (the chunk
//     override exercises partition boundaries even on a 1-core runner)
//   - LIF/PLIF-produced surrogate gradients through a conv for all three
//     surrogates, including the Boxcar |u| == w window boundary and a
//     refractory LIF, with backward-dispatch telemetry assertions
//   - dX dispatch reads the gradient it is handed, never a count left
//     behind by a freed tensor at the same address
//   - RetainedActivations accounting (CSR contexts shrink retained bytes,
//     backward/reset return to baseline)
//   - set_input_grad_needed(false): dX skipped (zeros), dW still exact

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/depthwise_conv2d.h"
#include "nn/linear.h"
#include "parallel/parallel_for.h"
#include "snn/lif.h"
#include "snn/plif.h"
#include "telemetry/retained.h"
#include "telemetry/telemetry.h"
#include "tensor/spike_kernels.h"
#include "util/rng.h"

namespace snnskip {
namespace {

// Save/restore the SparseExec threshold around each test.
struct SparseGuard {
  float threshold = SparseExec::threshold();
  ~SparseGuard() { SparseExec::set_threshold(threshold); }
};

// Dispatch counters start from zero; telemetry is off again afterwards.
struct CounterGuard {
  CounterGuard() {
    Telemetry::reset();
    Telemetry::set_enabled(true);
  }
  ~CounterGuard() {
    Telemetry::set_enabled(false);
    Telemetry::reset();
  }
};

double counter(const char* name) {
  const std::map<std::string, double> c = Telemetry::counters();
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

struct ChunkGuard {
  explicit ChunkGuard(std::size_t k) { set_parallel_chunk_override(k); }
  ~ChunkGuard() { set_parallel_chunk_override(0); }
};

// Bernoulli(rate) mask times N(0,1): surrogate-style sparse values.
Tensor sparse_signal(const Shape& shape, Rng& rng, float rate) {
  Tensor mask = Tensor::bernoulli(shape, rng, rate);
  Tensor noise = Tensor::randn(shape, rng);
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[static_cast<std::size_t>(i)] *= noise[static_cast<std::size_t>(i)];
  }
  return mask;
}

struct Grads {
  Tensor dw;
  Tensor db;
  Tensor dx;
};

// One train-mode fwd+bwd with grads zeroed first.
Grads run_step(Layer& layer, const Tensor& x, const Tensor& g) {
  layer.reset_state();
  for (Parameter* p : layer.parameters()) p->zero_grad();
  (void)layer.forward(x, /*train=*/true);
  Grads out;
  out.dx = layer.backward(g);
  auto params = layer.parameters();
  out.dw = params[0]->grad;
  if (params.size() > 1) out.db = params[1]->grad;
  return out;
}

void expect_bitwise_equal(const Grads& a, const Grads& b) {
  EXPECT_EQ(Tensor::max_abs_diff(a.dw, b.dw), 0.f);
  EXPECT_EQ(Tensor::max_abs_diff(a.dx, b.dx), 0.f);
  if (a.db.numel() > 0) {
    EXPECT_EQ(Tensor::max_abs_diff(a.db, b.db), 0.f);
  }
}

Grads dense_reference(Layer& layer, const Tensor& x, const Tensor& g) {
  const float threshold = SparseExec::threshold();
  SparseExec::set_threshold(0.f);  // dense everywhere
  Grads dense = run_step(layer, x, g);
  SparseExec::set_threshold(threshold);
  return dense;
}

// --- Conv2d -----------------------------------------------------------------

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w, n;
  bool bias;
  float grad_rate;  // 1.0 = dense grad_out (sparse dW only, dense dX)
};

class ConvSparseBwd : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSparseBwd, MatchesDenseBitForBit) {
  const ConvCase c = GetParam();
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(101);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias, rng);
  Tensor x = Tensor::bernoulli(Shape{c.n, c.in_c, c.h, c.w}, rng, 0.1f);
  const Shape os = conv.output_shape(x.shape());
  Tensor g = c.grad_rate >= 1.f ? Tensor::randn(os, rng)
                                : sparse_signal(os, rng, c.grad_rate);

  Grads sparse = run_step(conv, x, g);
  Grads dense = dense_reference(conv, x, g);
  expect_bitwise_equal(sparse, dense);
}

// Cases live in static storage, which zeroes the padding bytes after
// `bias`: gtest prints the parameter's bytes into the test name that
// gtest_discover_tests registers, so stack temporaries (::testing::Values)
// could give one test a different name in every listing.
const ConvCase kGeometryCases[] = {
    {3, 4, 3, 1, 1, 6, 6, 2, true, 1.f},    // dense grads
    {3, 4, 3, 1, 1, 6, 6, 2, true, 0.1f},   // sparse grads
    {2, 5, 3, 2, 1, 7, 7, 2, false, 0.1f},  // stride 2
    {4, 3, 1, 1, 0, 5, 5, 1, true, 0.1f},   // 1x1 kernel
    {2, 3, 3, 1, 0, 6, 4, 3, false, 0.1f},  // no pad, non-square
    {5, 2, 3, 2, 0, 8, 8, 2, true, 0.05f},
};

INSTANTIATE_TEST_SUITE_P(Geometries, ConvSparseBwd,
                         ::testing::ValuesIn(kGeometryCases));

// Outputs below the GEMM tile width take the batched dense lowering (one
// GEMM over all N*HoWo patches, and a K = N gemm_tn for dW at 1x1).
std::string small_output_name(const ::testing::TestParamInfo<ConvCase>& p) {
  const ConvCase& c = p.param;
  const ConvGeometry g{c.in_c, c.h, c.w, c.kernel, c.stride, c.pad};
  return "out" + std::to_string(g.out_h()) + "x" + std::to_string(g.out_w()) +
         "_stride" + std::to_string(c.stride) +
         (c.bias ? "_bias" : "_nobias");
}

// Static storage for the same reason as kGeometryCases.
const ConvCase kSmallOutputCases[] = {
    {6, 20, 3, 1, 1, 2, 2, 4, true, 0.1f},
    {6, 8, 3, 2, 1, 4, 4, 4, false, 0.1f},
    {16, 20, 3, 1, 1, 1, 1, 4, false, 0.1f},
    {16, 6, 3, 2, 1, 2, 2, 4, true, 1.f},
};

INSTANTIATE_TEST_SUITE_P(SmallOutputs, ConvSparseBwd,
                         ::testing::ValuesIn(kSmallOutputCases),
                         small_output_name);

TEST(ConvSparseBwd, InvariantUnderChunkPartitions) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(103);
  Conv2d conv(4, 6, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 4, 8, 8}, rng, 0.1f);
  Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.1f);

  Grads base = run_step(conv, x, g);  // default partitioning
  for (std::size_t k : {1u, 2u, 4u}) {
    ChunkGuard chunks(k);
    Grads got = run_step(conv, x, g);
    SCOPED_TRACE("chunks=" + std::to_string(k));
    expect_bitwise_equal(got, base);
  }
  // And the dense reference is partition-count-sensitive-free too.
  Grads dense = dense_reference(conv, x, g);
  expect_bitwise_equal(base, dense);
}

TEST(ConvSparseBwd, SkippedInputGradIsZeroAndWeightGradExact) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(105);
  Conv2d conv(3, 4, 3, 1, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 3, 6, 6}, rng, 0.1f);
  Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.1f);

  Grads with_dx = dense_reference(conv, x, g);

  conv.set_input_grad_needed(false);
  Grads sparse = run_step(conv, x, g);
  EXPECT_EQ(Tensor::max_abs_diff(sparse.dw, with_dx.dw), 0.f);
  for (std::int64_t i = 0; i < sparse.dx.numel(); ++i) {
    ASSERT_EQ(sparse.dx[static_cast<std::size_t>(i)], 0.f);
  }
}

// --- Linear -----------------------------------------------------------------

TEST(LinearSparseBwd, MatchesDenseBitForBit) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(107);
  for (float grad_rate : {1.f, 0.1f}) {
    Linear lin(24, 10, true, rng);
    Tensor x = Tensor::bernoulli(Shape{5, 24}, rng, 0.1f);
    Tensor g = grad_rate >= 1.f
                   ? Tensor::randn(Shape{5, 10}, rng)
                   : sparse_signal(Shape{5, 10}, rng, grad_rate);
    Grads sparse = run_step(lin, x, g);
    Grads dense = dense_reference(lin, x, g);
    SCOPED_TRACE("grad_rate=" + std::to_string(grad_rate));
    expect_bitwise_equal(sparse, dense);
  }
}

TEST(LinearSparseBwd, InvariantUnderChunkPartitions) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(109);
  Linear lin(32, 12, false, rng);
  Tensor x = Tensor::bernoulli(Shape{4, 32}, rng, 0.1f);
  Tensor g = sparse_signal(Shape{4, 12}, rng, 0.1f);

  Grads base = run_step(lin, x, g);
  for (std::size_t k : {1u, 2u, 4u}) {
    ChunkGuard chunks(k);
    Grads got = run_step(lin, x, g);
    SCOPED_TRACE("chunks=" + std::to_string(k));
    expect_bitwise_equal(got, base);
  }
  expect_bitwise_equal(base, dense_reference(lin, x, g));
}

// --- DepthwiseConv2d --------------------------------------------------------

TEST(DepthwiseSparseBwd, MatchesDenseBitForBit) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(111);
  struct DwCase {
    std::int64_t c, k, s, p;
  };
  for (const DwCase dc : {DwCase{4, 3, 1, 1}, DwCase{3, 3, 2, 1}}) {
    DepthwiseConv2d conv(dc.c, dc.k, dc.s, dc.p, true, rng);
    Tensor x = Tensor::bernoulli(Shape{2, dc.c, 7, 7}, rng, 0.1f);
    Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.2f);
    Grads sparse = run_step(conv, x, g);
    Grads dense = dense_reference(conv, x, g);
    SCOPED_TRACE("stride=" + std::to_string(dc.s));
    expect_bitwise_equal(sparse, dense);
  }
}

// --- LIF/PLIF-produced gradients through a conv -----------------------------

// Run spikes -> conv -> lif in sparse mode, backprop a top gradient, and
// capture the surrogate gradient the neuron hands the conv. Then replay
// the SAME gradient through the conv in forced-dense mode. The sparse and
// dense conv backwards must agree bit-for-bit (the conv's own forward
// mode never enters its backward math: dW uses input x grad_out, dX uses
// W x grad_out).
template <typename Neuron>
void check_neuron_driven_conv(const LifConfig& cfg, float in_rate,
                              bool expect_sparse_dx, int timesteps = 1) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(113);
  Conv2d conv(3, 4, 3, 1, 1, false, rng);
  Neuron neuron(cfg);
  std::vector<Tensor> xs;
  std::vector<Tensor> g_tops;
  for (int t = 0; t < timesteps; ++t) {
    xs.push_back(Tensor::bernoulli(Shape{2, 3, 8, 8}, rng, in_rate));
    g_tops.push_back(Tensor::randn(conv.output_shape(xs[0].shape()), rng));
  }

  // Live sparse run: each timestep's surrogate gradient goes straight
  // from the neuron's backward into the conv's.
  conv.reset_state();
  neuron.reset_state();
  for (Parameter* p : conv.parameters()) p->zero_grad();
  for (int t = 0; t < timesteps; ++t) {
    (void)neuron.forward(conv.forward(xs[t], /*train=*/true),
                         /*train=*/true);
  }
  CounterGuard counters;
  std::vector<Tensor> g_convs(timesteps);
  std::vector<Tensor> sparse_dx(timesteps);
  std::int64_t true_nnz = 0;
  for (int t = timesteps - 1; t >= 0; --t) {
    g_convs[t] = neuron.backward(g_tops[t]);
    true_nnz += count_nonzero(g_convs[t].data(), g_convs[t].numel());
    sparse_dx[t] = conv.backward(g_convs[t]);
  }
  Tensor sparse_dw = conv.weight().grad;
  const double sparse_calls = counter("dispatch.bwd.sparse");
  const double dense_calls = counter("dispatch.bwd.dense");
  EXPECT_EQ(sparse_calls + dense_calls, static_cast<double>(timesteps));
  if (expect_sparse_dx) {
    EXPECT_GE(sparse_calls, 1.0);
  } else {
    EXPECT_EQ(dense_calls, static_cast<double>(timesteps));
  }
  // The dispatch saw the true nonzero count.
  EXPECT_EQ(counter("dispatch.bwd.nnz"), static_cast<double>(true_nnz));

  // Dense replay with the captured per-timestep gradients (the conv's
  // backward math never reads its own forward output, so feeding the same
  // gradients must reproduce dW and every dX bit-for-bit).
  SparseExec::set_threshold(0.f);
  conv.reset_state();
  for (Parameter* p : conv.parameters()) p->zero_grad();
  for (int t = 0; t < timesteps; ++t) {
    (void)conv.forward(xs[t], /*train=*/true);
  }
  for (int t = timesteps - 1; t >= 0; --t) {
    Tensor dense_dx = conv.backward(g_convs[t]);
    EXPECT_EQ(Tensor::max_abs_diff(sparse_dx[t], dense_dx), 0.f)
        << "dX mismatch at timestep " << t;
  }
  EXPECT_EQ(Tensor::max_abs_diff(sparse_dw, conv.weight().grad), 0.f);

  neuron.reset_state();
  conv.reset_state();
}

TEST(NeuronDrivenConvBwd, BoxcarActiveSetDispatchesSparse) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;  // half-width 0.5: narrow window, sparse dL/dx
  check_neuron_driven_conv<Lif>(cfg, 0.1f, /*expect_sparse_dx=*/true);
}

TEST(NeuronDrivenConvBwd, FastSigmoidIsDenseEverywhere) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::FastSigmoid;
  check_neuron_driven_conv<Lif>(cfg, 0.1f, /*expect_sparse_dx=*/false);
}

TEST(NeuronDrivenConvBwd, AtanIsDenseEverywhere) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Atan;
  check_neuron_driven_conv<Lif>(cfg, 0.1f, /*expect_sparse_dx=*/false);
}

TEST(NeuronDrivenConvBwd, PlifBoxcarDispatchesSparse) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;
  check_neuron_driven_conv<Plif>(cfg, 0.1f, /*expect_sparse_dx=*/true);
}

TEST(NeuronDrivenConvBwd, RefractoryLifStaysExact) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;
  cfg.refractory = 2;  // silenced steps mask their spike gradient to zero
  // 3 timesteps so neurons that spike at t=0 are refractory (live_mask 0,
  // gradient hard-zeroed) during t=1..2.
  check_neuron_driven_conv<Lif>(cfg, 0.3f, /*expect_sparse_dx=*/true,
                                /*timesteps=*/3);
}

TEST(BoxcarBoundary, WindowEdgeIsInsideTheActiveSet) {
  // scale = 2 -> half-width w = 0.5 (both exact in binary floating point).
  Surrogate s;
  s.kind = SurrogateKind::Boxcar;
  s.scale = 2.f;
  EXPECT_EQ(s.grad(0.5f), 1.f);    // |u| == w: inside the window
  EXPECT_EQ(s.grad(-0.5f), 1.f);
  EXPECT_EQ(s.grad(std::nextafter(0.5f, 1.f)), 0.f);  // just outside

  // A LIF neuron landing exactly on the window edge: threshold 1,
  // x = 1.5 on a fresh membrane -> u = 0.5 == w. Its gradient entry must
  // be counted active and propagate go * sigma'(u) = go * 1.
  LifConfig cfg;
  cfg.surrogate = s;
  cfg.threshold = 1.f;
  Lif lif(cfg);
  Tensor x(Shape{1, 4});
  x[0] = 1.5f;   // u = +0.5: boundary, active
  x[1] = 0.5f;   // u = -0.5: boundary, active
  x[2] = 1.6f;   // u > w: inactive
  x[3] = 0.f;    // u = -1: inactive
  (void)lif.forward(x, /*train=*/true);
  Tensor g = Tensor::full(Shape{1, 4}, 2.f);
  Tensor gi = lif.backward(g);
  EXPECT_EQ(gi[0], 2.f);
  EXPECT_EQ(gi[1], 2.f);
  EXPECT_EQ(gi[2], 0.f);
  EXPECT_EQ(gi[3], 0.f);
  lif.reset_state();
}

// --- stale gradient counts ---------------------------------------------------

TEST(StaleGradCount, DenseGradOnRecycledStorageDispatchesDense) {
  // A neuron's surrogate gradient is dropped unconsumed (in the models a
  // BatchNormTT sits between neuron and conv), and the next gradient the
  // allocator places at the same address is a dense tensor of the same
  // shape. Its dX dispatch must count that tensor, not the dropped one's
  // active set.
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(125);
  Linear lin(8, 32, false, rng);
  (void)lin.forward(Tensor::bernoulli(Shape{8, 8}, rng, 0.1f),
                    /*train=*/true);

  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;  // window |u| <= 0.5
  Lif lif(cfg);
  // Zero input: u = -threshold, far outside the window, so the surrogate
  // gradient (and its active-set count) is all zero.
  (void)lif.forward(Tensor(Shape{8, 32}), /*train=*/true);

  CounterGuard counters;
  const float* dropped = nullptr;
  {
    const Tensor stale = lif.backward(Tensor::full(Shape{8, 32}, 1.f));
    ASSERT_EQ(count_nonzero(stale.data(), stale.numel()), 0);
    dropped = stale.data();
  }
  const Tensor g = Tensor::full(Shape{8, 32}, 1.f);
  if (g.data() != dropped) {
    lif.reset_state();
    lin.reset_state();
    GTEST_SKIP() << "the allocator did not reuse the dropped gradient's "
                    "storage";
  }
  (void)lin.backward(g);
  EXPECT_EQ(counter("dispatch.bwd.nnz"), static_cast<double>(g.numel()));
  EXPECT_EQ(counter("dispatch.bwd.dense"), 1.0);
  EXPECT_EQ(counter("dispatch.bwd.sparse"), 0.0);
  lif.reset_state();
}

// --- RetainedActivations ----------------------------------------------------

TEST(RetainedActivationsTest, SparseContextsShrinkAndBalance) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(117);
  Conv2d conv(4, 4, 3, 1, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{1, 4, 8, 8}, rng, 0.05f);
  Tensor g = Tensor::randn(conv.output_shape(x.shape()), rng);
  const std::int64_t dense_bytes =
      x.numel() * static_cast<std::int64_t>(sizeof(float));

  const std::int64_t base = RetainedActivations::current();

  // Sparse forward retains the CSR, far smaller than the dense tensor.
  (void)conv.forward(x, /*train=*/true);
  const std::int64_t sparse_held = RetainedActivations::current() - base;
  EXPECT_GT(sparse_held, 0);
  EXPECT_LT(sparse_held, dense_bytes);
  EXPECT_GE(RetainedActivations::high_water(), base + sparse_held);
  (void)conv.backward(g);
  EXPECT_EQ(RetainedActivations::current(), base);

  // Dense forward retains the full tensor; reset_state releases it.
  SparseExec::set_threshold(0.f);
  (void)conv.forward(x, /*train=*/true);
  EXPECT_EQ(RetainedActivations::current() - base, dense_bytes);
  conv.reset_state();
  EXPECT_EQ(RetainedActivations::current(), base);
}

TEST(RetainedActivationsTest, NeuronContextsBalanceAcrossTimesteps) {
  Rng rng(119);
  Lif lif(LifConfig{});
  Tensor x = Tensor::bernoulli(Shape{2, 3, 4, 4}, rng, 0.3f);
  const std::int64_t base = RetainedActivations::current();
  for (int t = 0; t < 3; ++t) (void)lif.forward(x, /*train=*/true);
  EXPECT_GT(RetainedActivations::current(), base);
  lif.reset_state();
  EXPECT_EQ(RetainedActivations::current(), base);
}

// --- backward-dispatch telemetry --------------------------------------------

TEST(SparseBwdStats, CountsDispatchAndDensity) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(121);
  Linear lin(16, 8, false, rng);
  Tensor x = Tensor::bernoulli(Shape{3, 16}, rng, 0.1f);
  Tensor g_sparse = sparse_signal(Shape{3, 8}, rng, 0.1f);
  Tensor g_dense = Tensor::randn(Shape{3, 8}, rng);

  CounterGuard counters;
  (void)run_step(lin, x, g_sparse);
  (void)run_step(lin, x, g_dense);
  EXPECT_EQ(counter("dispatch.bwd.sparse"), 1.0);
  EXPECT_EQ(counter("dispatch.bwd.dense"), 1.0);
  const double elements = counter("dispatch.bwd.elements");
  EXPECT_EQ(elements, static_cast<double>(2 * g_dense.numel()));
  EXPECT_GT(counter("dispatch.bwd.nnz"), 0.0);
  EXPECT_LT(counter("dispatch.bwd.nnz") / elements, 1.0);
}

// --- sparse dX under finite differences -------------------------------------

// The layer-level FD harness (gradcheck_test) probes with a dense random
// weighting, which always dispatches the dense dX path. Here the probe
// gradient itself is sparse, so the event-driven scatter is what FD
// differentiates.
TEST(SparseBwdFiniteDiff, ConvInputGradSparsePath) {
  SparseGuard guard;
  SparseExec::set_threshold(1.f);  // always sparse, any density

  Rng rng(123);
  Conv2d conv(2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{1, 2, 5, 5}, rng, 0.2f);
  Tensor w = sparse_signal(conv.output_shape(x.shape()), rng, 0.3f);

  auto loss = [&](const Tensor& in) {
    conv.reset_state();
    Tensor y = conv.forward(in, /*train=*/true);
    conv.reset_state();
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      s += static_cast<double>(y[static_cast<std::size_t>(i)]) *
           w[static_cast<std::size_t>(i)];
    }
    return s;
  };

  conv.reset_state();
  for (Parameter* p : conv.parameters()) p->zero_grad();
  (void)conv.forward(x, /*train=*/true);
  Tensor gx = conv.backward(w);

  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    const std::size_t si = static_cast<std::size_t>(i);
    const float orig = x[si];
    x[si] = orig + eps;
    const double lp = loss(x);
    x[si] = orig - eps;
    const double lm = loss(x);
    x[si] = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    const double an = gx[si];
    EXPECT_NEAR(fd, an, 2e-2 * std::max(1.0, std::abs(an)))
        << "input grad at flat index " << i;
  }
}

}  // namespace
}  // namespace snnskip
