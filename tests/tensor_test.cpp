// Tests for the tensor substrate: shapes, arithmetic, channel ops (the
// primitives behind DSC/ASC joins), GEMM against a naive reference, and the
// im2col/col2im adjoint property.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/spike_csr.h"
#include "tensor/spike_kernels.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace snnskip {
namespace {

TEST(Shape, NumelAndStrides) {
  Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.numel(), 120);
  const auto strides = s.strides();
  ASSERT_EQ(strides.size(), 4u);
  EXPECT_EQ(strides[0], 60);
  EXPECT_EQ(strides[1], 20);
  EXPECT_EQ(strides[2], 5);
  EXPECT_EQ(strides[3], 1);
}

TEST(Shape, EmptyShapeIsScalar) {
  Shape s;
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.ndim(), 0u);
}

TEST(Shape, EqualityAndString) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
  EXPECT_EQ((Shape{1, 2}).str(), "[1, 2]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t[static_cast<std::size_t>(i)], 0.f);
  }
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full(Shape{4}, 2.5f);
  EXPECT_FLOAT_EQ(t[0], 2.5f);
  t.fill(-1.f);
  EXPECT_FLOAT_EQ(t[3], -1.f);
}

TEST(Tensor, AtIndexing) {
  Tensor t(Shape{2, 3});
  t.at({1, 2}) = 7.f;
  EXPECT_FLOAT_EQ(t.at({1, 2}), 7.f);
  EXPECT_FLOAT_EQ(t[5], 7.f);  // row-major
}

TEST(Tensor, RandnStatistics) {
  Rng rng(5);
  Tensor t = Tensor::randn(Shape{10000}, rng, 1.f, 2.f);
  EXPECT_NEAR(t.mean(), 1.0, 0.1);
}

TEST(Tensor, RandBounds) {
  Rng rng(6);
  Tensor t = Tensor::rand(Shape{1000}, rng, -1.f, 1.f);
  EXPECT_GE(t.min_value(), -1.f);
  EXPECT_LT(t.max_value(), 1.f);
}

TEST(Tensor, BernoulliIsBinary) {
  Rng rng(8);
  Tensor t = Tensor::bernoulli(Shape{1000}, rng, 0.25f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float v = t[static_cast<std::size_t>(i)];
    EXPECT_TRUE(v == 0.f || v == 1.f);
  }
  EXPECT_NEAR(t.nonzero_fraction(), 0.25, 0.05);
}

TEST(Tensor, Arithmetic) {
  Tensor a = Tensor::full(Shape{4}, 2.f);
  Tensor b = Tensor::full(Shape{4}, 3.f);
  a.add_(b);
  EXPECT_FLOAT_EQ(a[0], 5.f);
  a.sub_(b);
  EXPECT_FLOAT_EQ(a[0], 2.f);
  a.mul_(4.f);
  EXPECT_FLOAT_EQ(a[0], 8.f);
  a.axpy_(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 9.5f);
  a.hadamard_(b);
  EXPECT_FLOAT_EQ(a[0], 28.5f);
  a.clamp_(0.f, 10.f);
  EXPECT_FLOAT_EQ(a[0], 10.f);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape{4}, std::vector<float>{1.f, -2.f, 3.f, 0.f});
  EXPECT_DOUBLE_EQ(t.sum(), 2.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.5);
  EXPECT_FLOAT_EQ(t.max_value(), 3.f);
  EXPECT_FLOAT_EQ(t.min_value(), -2.f);
  EXPECT_DOUBLE_EQ(t.nonzero_fraction(), 0.75);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape(Shape{3, 2});
  EXPECT_FLOAT_EQ(r.at({2, 1}), 5.f);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a(Shape{3}, std::vector<float>{1.f, 2.f, 3.f});
  Tensor b(Shape{3}, std::vector<float>{1.f, 2.5f, 3.f});
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 0.5f);
}

// --- channel operations -------------------------------------------------

TEST(Ops, ConcatChannels) {
  Tensor a = Tensor::full(Shape{2, 2, 2, 2}, 1.f);
  Tensor b = Tensor::full(Shape{2, 3, 2, 2}, 2.f);
  Tensor c = concat_channels({&a, &b});
  EXPECT_EQ(c.shape(), (Shape{2, 5, 2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0, 0, 0}), 1.f);
  EXPECT_FLOAT_EQ(c.at({0, 2, 0, 0}), 2.f);
  EXPECT_FLOAT_EQ(c.at({1, 4, 1, 1}), 2.f);
}

TEST(Ops, SliceChannelsInvertsConcat) {
  Rng rng(3);
  Tensor a = Tensor::randn(Shape{1, 2, 3, 3}, rng);
  Tensor b = Tensor::randn(Shape{1, 4, 3, 3}, rng);
  Tensor c = concat_channels({&a, &b});
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(slice_channels(c, 0, 2), a), 0.f);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(slice_channels(c, 2, 6), b), 0.f);
}

TEST(Ops, GatherChannelsSelects) {
  Tensor x(Shape{1, 4, 1, 1}, std::vector<float>{10, 11, 12, 13});
  Tensor g = gather_channels(x, {3, 1});
  EXPECT_EQ(g.shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(g[0], 13.f);
  EXPECT_FLOAT_EQ(g[1], 11.f);
}

TEST(Ops, ScatterAddIsAdjointOfGather) {
  // <gather(x), g> == <x, scatter(g)> for all x, g — the adjoint property
  // the Block backward relies on.
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{2, 5, 3, 3}, rng);
  const std::vector<std::int64_t> idx{4, 0, 2};
  Tensor g = Tensor::randn(Shape{2, 3, 3, 3}, rng);

  Tensor gx = gather_channels(x, idx);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < gx.numel(); ++i) {
    lhs += static_cast<double>(gx[static_cast<std::size_t>(i)]) *
           g[static_cast<std::size_t>(i)];
  }
  Tensor sg(Shape{2, 5, 3, 3});
  scatter_add_channels(sg, g, idx);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
           sg[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(Ops, ScatterAddAccumulates) {
  Tensor acc = Tensor::full(Shape{1, 2, 1, 1}, 1.f);
  Tensor g = Tensor::full(Shape{1, 1, 1, 1}, 2.f);
  scatter_add_channels(acc, g, {1});
  EXPECT_FLOAT_EQ(acc[0], 1.f);
  EXPECT_FLOAT_EQ(acc[1], 3.f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(9);
  Tensor logits = Tensor::randn(Shape{5, 7}, rng, 0.f, 3.f);
  Tensor p = softmax(logits);
  for (std::int64_t i = 0; i < 5; ++i) {
    double row = 0.0;
    for (std::int64_t j = 0; j < 7; ++j) row += p.at({i, j});
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
  EXPECT_GE(p.min_value(), 0.f);
}

TEST(Ops, SoftmaxHandlesLargeLogits) {
  Tensor logits(Shape{1, 3}, std::vector<float>{1000.f, 1001.f, 999.f});
  Tensor p = softmax(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(Ops, ArgmaxRows) {
  Tensor logits(Shape{2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(logits);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, PadUnpadRoundTrip) {
  Rng rng(10);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  Tensor p = pad2d(x, 2);
  EXPECT_EQ(p.shape(), (Shape{2, 3, 8, 8}));
  EXPECT_FLOAT_EQ(p.at({0, 0, 0, 0}), 0.f);  // border is zero
  Tensor u = unpad2d(p, 2);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(u, x), 0.f);
}

// --- GEMM ----------------------------------------------------------------

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.f;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(100 + m + n + k);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  Tensor ref(Shape{m, n});
  gemm(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 7),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(33, 17, 65),
                                           std::make_tuple(8, 200, 150),
                                           std::make_tuple(64, 1, 300)));

TEST(Gemm, AlphaBetaSemantics) {
  const std::int64_t m = 4, n = 4, k = 4;
  Rng rng(11);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c = Tensor::full(Shape{m, n}, 1.f);
  Tensor ab(Shape{m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ab.data());
  gemm(m, n, k, 2.f, a.data(), b.data(), 3.f, c.data());
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                2.f * ab[static_cast<std::size_t>(i)] + 3.f, 1e-3f);
  }
}

TEST(Gemm, TransposedAMatchesNaive) {
  const std::int64_t m = 6, n = 9, k = 5;
  Rng rng(12);
  Tensor at = Tensor::randn(Shape{k, m}, rng);  // A stored transposed
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n});
  gemm_tn(m, n, k, 1.f, at.data(), b.data(), 0.f, c.data());
  // Build the untransposed A and compare.
  Tensor a(Shape{m, k});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) a.at({i, p}) = at.at({p, i});
  }
  Tensor ref(Shape{m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), 1e-4f);
}

TEST(Gemm, TransposedBMatchesNaive) {
  const std::int64_t m = 7, n = 4, k = 8;
  Rng rng(13);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor bt = Tensor::randn(Shape{n, k}, rng);  // B stored transposed
  Tensor c(Shape{m, n});
  gemm_nt(m, n, k, 1.f, a.data(), bt.data(), 0.f, c.data());
  Tensor b(Shape{k, n});
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) b.at({p, j}) = bt.at({j, p});
  }
  Tensor ref(Shape{m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), 1e-4f);
}

TEST(Gemm, AccumulatesWithBetaOne) {
  const std::int64_t m = 3, n = 3, k = 3;
  Rng rng(14);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c1(Shape{m, n});
  gemm(m, n, k, 1.f, a.data(), b.data(), 0.f, c1.data());
  Tensor c2(Shape{m, n});
  gemm(m, n, k, 1.f, a.data(), b.data(), 0.f, c2.data());
  gemm(m, n, k, 1.f, a.data(), b.data(), 1.f, c2.data());
  for (std::int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c2[static_cast<std::size_t>(i)],
                2.f * c1[static_cast<std::size_t>(i)], 1e-4f);
  }
}

// --- im2col --------------------------------------------------------------

// Test reference: the adjoint of im2col, accumulating (CKK, HoWo) columns
// back into an image in kernel-row order, then output pixel order. The
// direct dX kernel must reproduce gemm_tn + col2im bit for bit.
void col2im(const ConvGeometry& g, const float* cols, float* img) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t cc = g.col_cols();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += cols[row * cc + oy * wo + ox];
          }
        }
      }
    }
  }
}

class Im2ColGeom : public ::testing::TestWithParam<ConvGeometry> {};

TEST_P(Im2ColGeom, AdjointProperty) {
  // <im2col(x), c> == <x, col2im(c)>.
  const ConvGeometry g = GetParam();
  Rng rng(21);
  Tensor x = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, x.data(), cols.data());

  Tensor c = Tensor::randn(Shape{g.col_rows(), g.col_cols()}, rng);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) *
           c[static_cast<std::size_t>(i)];
  }
  Tensor back(Shape{g.in_c, g.in_h, g.in_w});
  col2im(g, c.data(), back.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
           back[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST_P(Im2ColGeom, Row2ImMatchesCol2ImBitwise) {
  // im2row is im2col's transpose, and row2im of the patch-major values
  // adds into each pixel in col2im's order: bitwise equal, also on top of
  // a nonzero image.
  const ConvGeometry g = GetParam();
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();
  Rng rng(23);
  Tensor x = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
  Tensor cols(Shape{cr, cc});
  Tensor rows(Shape{cc, cr});
  im2col(g, x.data(), cols.data());
  im2row(g, x.data(), rows.data());
  for (std::int64_t r = 0; r < cr; ++r) {
    for (std::int64_t q = 0; q < cc; ++q) {
      ASSERT_EQ(cols.at({r, q}), rows.at({q, r}));
    }
  }

  Tensor c = Tensor::randn(Shape{cr, cc}, rng);
  Tensor t(Shape{cc, cr});
  for (std::int64_t r = 0; r < cr; ++r) {
    for (std::int64_t q = 0; q < cc; ++q) t.at({q, r}) = c.at({r, q});
  }
  Tensor via_cols = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
  Tensor via_rows = via_cols;
  col2im(g, c.data(), via_cols.data());
  row2im(g, t.data(), via_rows.data());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    ASSERT_EQ(via_cols[k], via_rows[k]) << "pixel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColGeom,
    ::testing::Values(ConvGeometry{1, 4, 4, 3, 1, 1},
                      ConvGeometry{3, 8, 8, 3, 1, 1},
                      ConvGeometry{2, 8, 8, 3, 2, 1},
                      ConvGeometry{4, 6, 6, 1, 1, 0},
                      ConvGeometry{2, 5, 7, 3, 2, 1},
                      ConvGeometry{1, 4, 4, 4, 2, 0}));

TEST(Im2Col, IdentityKernelCopiesPixels) {
  // 1x1 kernel, stride 1, no padding: cols == image.
  const ConvGeometry g{2, 3, 3, 1, 1, 0};
  Rng rng(22);
  Tensor x = Tensor::randn(Shape{2, 3, 3}, rng);
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, x.data(), cols.data());
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(cols.reshape(x.shape()), x), 0.f);
}

TEST(Im2Col, PaddingProducesZeros) {
  const ConvGeometry g{1, 2, 2, 3, 1, 1};
  Tensor x = Tensor::full(Shape{1, 2, 2}, 5.f);
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, x.data(), cols.data());
  // Top-left output position, top-left kernel tap reads padding.
  EXPECT_FLOAT_EQ(cols.at({0, 0}), 0.f);
}

TEST(ConvGeometry, OutputSizes) {
  const ConvGeometry g{3, 16, 16, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  EXPECT_EQ(g.col_rows(), 27);
  EXPECT_EQ(g.col_cols(), 64);
}

TEST(Workspace, StackedScopesReleaseInOrder) {
  Workspace ws;
  {
    auto outer = ws.scope();
    float* a = outer.floats(100);
    ASSERT_NE(a, nullptr);
    a[0] = 1.f;
    {
      auto inner = ws.scope();
      float* b = inner.zeroed_floats(50);
      EXPECT_EQ(b[49], 0.f);
      // Outer pointer stays valid while the inner scope is live.
      a[99] = 2.f;
    }
    EXPECT_FLOAT_EQ(a[0], 1.f);
    EXPECT_FLOAT_EQ(a[99], 2.f);
  }
  EXPECT_GE(ws.high_water(), 150u);
}

TEST(Workspace, SteadyStateStopsAllocating) {
  Workspace ws;
  auto iteration = [&ws] {
    auto scope = ws.scope();
    (void)scope.floats(1000);
    (void)scope.floats(3000);
  };
  iteration();  // first pass grows the arena
  iteration();  // possible coalesce
  const std::size_t allocs = ws.heap_allocs();
  const std::size_t hw = ws.high_water();
  for (int i = 0; i < 10; ++i) iteration();
  EXPECT_EQ(ws.heap_allocs(), allocs);  // zero heap traffic in steady state
  EXPECT_EQ(ws.high_water(), hw);
}

TEST(Workspace, GrowthPreservesEarlierPointers) {
  Workspace ws;
  auto scope = ws.scope();
  float* a = scope.floats(10);
  a[0] = 42.f;
  // Force a new block well past the first one's capacity.
  float* b = scope.floats(1 << 20);
  b[0] = 1.f;
  EXPECT_FLOAT_EQ(a[0], 42.f);
}

TEST(SpikeCsr, PacksRowEvents) {
  // 2 rows x 5 cols with known nonzeros.
  const float data[10] = {0.f, 1.f, 0.f, 1.f, 0.f, 0.f, 0.f, 0.f, 0.f, 1.f};
  SpikeCsr csr;
  csr.build(data, 2, 5);
  EXPECT_EQ(csr.rows(), 2);
  EXPECT_EQ(csr.nnz(), 3);
  EXPECT_TRUE(csr.binary());
  EXPECT_DOUBLE_EQ(csr.density(), 0.3);
  ASSERT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_indices(0)[0], 1);
  EXPECT_EQ(csr.row_indices(0)[1], 3);
  ASSERT_EQ(csr.row_nnz(1), 1);
  EXPECT_EQ(csr.row_indices(1)[0], 4);
}

TEST(SpikeCsr, NonBinaryValuesAreKept) {
  const float data[4] = {0.f, 2.5f, 0.f, 1.f};
  SpikeCsr csr;
  csr.build(data, 1, 4);
  EXPECT_FALSE(csr.binary());
  ASSERT_EQ(csr.row_nnz(0), 2);
  EXPECT_FLOAT_EQ(csr.row_values(0)[0], 2.5f);
  EXPECT_FLOAT_EQ(csr.row_values(0)[1], 1.f);
}

TEST(SpikeCsr, EmptyAndFullDensityExtremes) {
  Tensor zeros(Shape{4, 8});
  SpikeCsr csr;
  csr.build(zeros.data(), 4, 8);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_DOUBLE_EQ(csr.density(), 0.0);

  Tensor ones = Tensor::full(Shape{4, 8}, 1.f);
  csr.build(ones.data(), 4, 8);
  EXPECT_EQ(csr.nnz(), 32);
  EXPECT_DOUBLE_EQ(csr.density(), 1.0);
  EXPECT_TRUE(csr.binary());
}

TEST(SparseExec, CountNonzeroAndToggle) {
  const float data[6] = {0.f, 1.f, 0.f, 0.f, 3.f, 0.f};
  EXPECT_EQ(count_nonzero(data, 6), 2);

  const float was = SparseExec::threshold();
  EXPECT_GT(was, 0.f);
  EXPECT_LE(was, 1.f);
  // The threshold is the one switch: 1 takes the event kernels for any
  // input that is not fully dense, 0 the dense path for every input.
  SparseExec::set_threshold(1.f);
  EXPECT_TRUE(SparseExec::dispatch(data, 6, /*backward=*/false));
  SparseExec::set_threshold(0.f);
  EXPECT_EQ(SparseExec::threshold(), 0.f);
  EXPECT_FALSE(SparseExec::dispatch(data, 6, /*backward=*/false));
  SparseExec::set_threshold(was);
}

// Dense reference conv via im2col + gemm, for the event-driven kernel.
Tensor reference_conv(const ConvGeometry& g, const Tensor& x,
                      const Tensor& w, std::int64_t out_c) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();
  Tensor out(Shape{n, out_c, g.out_h(), g.out_w()});
  Tensor cols(Shape{cr, cc});
  for (std::int64_t img = 0; img < n; ++img) {
    im2col(g, x.data() + img * g.in_c * g.in_h * g.in_w, cols.data());
    gemm(out_c, cc, cr, 1.f, w.data(), cols.data(), 0.f,
         out.data() + img * out_c * cc);
  }
  return out;
}

class SpikeConvDensity : public ::testing::TestWithParam<double> {};

TEST_P(SpikeConvDensity, MatchesIm2colGemm) {
  const double density = GetParam();
  Rng rng(777);
  const ConvGeometry g{6, 9, 9, 3, 1, 1};
  const std::int64_t out_c = 5;
  Tensor x = Tensor::bernoulli(Shape{2, 6, 9, 9}, rng,
                               static_cast<float>(density));
  Tensor w = Tensor::randn(Shape{out_c, 6, 3, 3}, rng);

  SpikeCsr csr;
  csr.build(x.data(), 2, 6 * 9 * 9);
  Tensor got(Shape{2, out_c, g.out_h(), g.out_w()});
  spike_conv2d_forward(g, csr, w.data(), nullptr, out_c, got.data(),
                       Workspace::tls());
  Tensor ref = reference_conv(g, x, w, out_c);
  EXPECT_LT(Tensor::max_abs_diff(got, ref), 1e-5f);
}

TEST_P(SpikeConvDensity, StridedMatchesIm2colGemm) {
  const double density = GetParam();
  Rng rng(778);
  const ConvGeometry g{4, 8, 8, 3, 2, 1};
  const std::int64_t out_c = 7;
  Tensor x = Tensor::bernoulli(Shape{1, 4, 8, 8}, rng,
                               static_cast<float>(density));
  Tensor w = Tensor::randn(Shape{out_c, 4, 3, 3}, rng);

  SpikeCsr csr;
  csr.build(x.data(), 1, 4 * 8 * 8);
  Tensor got(Shape{1, out_c, g.out_h(), g.out_w()});
  spike_conv2d_forward(g, csr, w.data(), nullptr, out_c, got.data(),
                       Workspace::tls());
  Tensor ref = reference_conv(g, x, w, out_c);
  EXPECT_LT(Tensor::max_abs_diff(got, ref), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(DensitySweep, SpikeConvDensity,
                         ::testing::Values(0.0, 0.05, 0.5, 1.0));

// --- Direct convolution ----------------------------------------------------
// The dense training conv kernels must equal the im2col lowering they
// replaced bit for bit: forward as im2col + gemm, dX as gemm_tn + col2im,
// dW as im2col + gemm_nt with beta 1 (one add per image).

struct DirectCase {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
};

// The zoo's training conv geometries (kernel 3/1, stride 1/2, pad 1/0) at
// search-like widths, square and not, output widths 4-16. Static storage
// keeps the printed parameter bytes stable (see sparse_bwd_test.cpp).
const DirectCase kDirectCases[] = {
    {2, 6, 3, 1, 1, 8, 8},      // stem, 8x8 out
    {6, 6, 3, 1, 1, 8, 8},      // stage-0 block
    {6, 12, 3, 2, 1, 8, 8},     // strided block entry, 4x4 out
    {12, 12, 3, 1, 1, 4, 4},    // 4x4 block
    {6, 12, 1, 2, 0, 8, 8},     // 1x1 stride-2 shortcut
    {12, 6, 1, 1, 0, 5, 7},     // 1x1 pointwise, width 7
    {9, 8, 3, 1, 1, 6, 12},     // non-square, width 12
    {16, 24, 3, 2, 1, 12, 20},  // stride 2, 6x10 out
    {9, 24, 3, 1, 0, 10, 18},   // no pad, 8x16 out
    {2, 8, 3, 2, 0, 9, 9},      // stride 2, no pad, 4x4 out
    {16, 12, 3, 1, 1, 16, 16},  // 16x16 out
    {6, 24, 1, 1, 0, 4, 13},    // width 13
};

std::string direct_case_name(const ::testing::TestParamInfo<int>& p) {
  const DirectCase& c = kDirectCases[p.param];
  return "c" + std::to_string(c.in_c) + "o" + std::to_string(c.out_c) + "k" +
         std::to_string(c.kernel) + "s" + std::to_string(c.stride) + "p" +
         std::to_string(c.pad) + "_" + std::to_string(c.h) + "x" +
         std::to_string(c.w);
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class DirectConv : public ::testing::TestWithParam<int> {
 protected:
  static constexpr std::int64_t kN = 3;
  void SetUp() override {
    c = kDirectCases[GetParam()];
    g = ConvGeometry{c.in_c, c.h, c.w, c.kernel, c.stride, c.pad};
    Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
    x = Tensor::randn(Shape{kN, c.in_c, c.h, c.w}, rng);
    w = Tensor::randn(Shape{c.out_c, c.in_c, c.kernel, c.kernel}, rng);
    go = Tensor::randn(Shape{kN, c.out_c, g.out_h(), g.out_w()}, rng);
    dw0 = Tensor::randn(w.shape(), rng);  // dW accumulates onto this
  }

  // dW by im2col + gemm_nt, one beta-1 product per image, from dw0.
  Tensor reference_dw(const Tensor& input) const {
    const std::int64_t cr = g.col_rows(), cc = g.col_cols();
    Tensor dw = dw0;
    Tensor cols(Shape{cr, cc});
    for (std::int64_t img = 0; img < kN; ++img) {
      im2col(g, input.data() + img * c.in_c * c.h * c.w, cols.data());
      gemm_nt(c.out_c, cr, cc, 1.f, go.data() + img * c.out_c * cc,
              cols.data(), 1.f, dw.data());
    }
    return dw;
  }

  DirectCase c{};
  ConvGeometry g{};
  Tensor x, w, go, dw0;
};

TEST_P(DirectConv, ForwardMatchesIm2colGemmBitwise) {
  Tensor got(Shape{kN, c.out_c, g.out_h(), g.out_w()});
  conv2d_direct_forward(g, kN, x.data(), w.data(), c.out_c, got.data(),
                        Workspace::tls());
  EXPECT_TRUE(same_bits(got, reference_conv(g, x, w, c.out_c)));
}

TEST_P(DirectConv, InputGradMatchesGemmTnCol2imBitwise) {
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();
  Tensor ref(x.shape());
  Tensor dcols(Shape{cr, cc});
  for (std::int64_t img = 0; img < kN; ++img) {
    gemm_tn(cr, cc, c.out_c, 1.f, w.data(), go.data() + img * c.out_c * cc,
            0.f, dcols.data());
    col2im(g, dcols.data(), ref.data() + img * c.in_c * c.h * c.w);
  }
  Rng fill(5);
  Tensor got = Tensor::randn(x.shape(), fill);  // overwritten, not added to
  conv2d_direct_backward_input(g, kN, go.data(), w.data(), c.out_c, got.data(),
                               Workspace::tls());
  EXPECT_TRUE(same_bits(got, ref));
}

TEST_P(DirectConv, WeightGradMatchesGemmNtBitwise) {
  Tensor got = dw0;
  conv2d_direct_backward_weight(g, kN, x.data(), go.data(), c.out_c,
                                got.data(), Workspace::tls());
  EXPECT_TRUE(same_bits(got, reference_dw(x)));
}

TEST_P(DirectConv, EventKernelsMatchDensePathBitwise) {
  // Spike input through the CSR forward and dW against the dense kernels
  // on the same binary tensor.
  Rng rng(950 + static_cast<std::uint64_t>(GetParam()));
  Tensor spikes = Tensor::bernoulli(x.shape(), rng, 0.3f);
  SpikeCsr csr;
  csr.build(spikes.data(), kN, c.in_c * c.h * c.w);

  Tensor dense(Shape{kN, c.out_c, g.out_h(), g.out_w()});
  conv2d_direct_forward(g, kN, spikes.data(), w.data(), c.out_c, dense.data(),
                        Workspace::tls());
  Tensor events(dense.shape());
  spike_conv2d_forward(g, csr, w.data(), nullptr, c.out_c, events.data(),
                       Workspace::tls());
  EXPECT_TRUE(same_bits(events, dense)) << "forward";

  Tensor dw_events = dw0;
  spike_conv2d_backward_weight(g, csr, go.data(), c.out_c, dw_events.data(),
                               Workspace::tls());
  Tensor dw_dense = dw0;
  conv2d_direct_backward_weight(g, kN, spikes.data(), go.data(), c.out_c,
                                dw_dense.data(), Workspace::tls());
  EXPECT_TRUE(same_bits(dw_events, dw_dense)) << "weight grad";
  EXPECT_TRUE(same_bits(dw_dense, reference_dw(spikes))) << "vs gemm_nt";
}

INSTANTIATE_TEST_SUITE_P(ZooGeometries, DirectConv,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kDirectCases))),
                         direct_case_name);

}  // namespace
}  // namespace snnskip
