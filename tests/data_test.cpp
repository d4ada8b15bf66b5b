// Tests for the synthetic datasets and loader: determinism, split
// disjointness, label balance, event-tensor structure, batching.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "data/dataloader.h"
#include "data/synthetic_cifar10.h"
#include "data/synthetic_dvs_cifar.h"
#include "data/synthetic_dvs_gesture.h"

namespace snnskip {
namespace {

SyntheticConfig tiny_cfg() {
  SyntheticConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.timesteps = 4;
  cfg.train_size = 40;
  cfg.val_size = 20;
  cfg.test_size = 20;
  cfg.seed = 77;
  return cfg;
}

template <typename D>
void expect_deterministic() {
  D a(tiny_cfg(), Split::Train);
  D b(tiny_cfg(), Split::Train);
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{39}}) {
    const Sample sa = a.get(i);
    const Sample sb = b.get(i);
    EXPECT_EQ(sa.y, sb.y);
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(sa.x, sb.x), 0.f);
  }
}

TEST(SyntheticCifar10, Deterministic) {
  expect_deterministic<SyntheticCifar10>();
}
TEST(SyntheticDvsCifar, Deterministic) {
  expect_deterministic<SyntheticDvsCifar>();
}
TEST(SyntheticDvsGesture, Deterministic) {
  expect_deterministic<SyntheticDvsGesture>();
}

TEST(SyntheticCifar10, ShapeAndRange) {
  SyntheticCifar10 ds(tiny_cfg(), Split::Train);
  const Sample s = ds.get(0);
  EXPECT_EQ(s.x.shape(), (Shape{3, 8, 8}));
  EXPECT_GE(s.x.min_value(), 0.f);
  EXPECT_LE(s.x.max_value(), 1.f);
  EXPECT_EQ(ds.timesteps(), 0);
  EXPECT_EQ(ds.step_channels(), 3);
  EXPECT_EQ(ds.num_classes(), 10);
}

TEST(SyntheticCifar10, LabelsBalancedAndInRange) {
  SyntheticCifar10 ds(tiny_cfg(), Split::Train);
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto y = ds.get(i).y;
    ASSERT_GE(y, 0);
    ASSERT_LT(y, 10);
    ++counts[static_cast<std::size_t>(y)];
  }
  for (int c : counts) EXPECT_EQ(c, 4);  // 40 samples / 10 classes
}

TEST(SyntheticCifar10, SplitsDiffer) {
  SyntheticCifar10 train(tiny_cfg(), Split::Train);
  SyntheticCifar10 val(tiny_cfg(), Split::Val);
  SyntheticCifar10 test(tiny_cfg(), Split::Test);
  // Same position in different splits must be different samples.
  EXPECT_GT(Tensor::max_abs_diff(train.get(0).x, val.get(0).x), 0.f);
  EXPECT_GT(Tensor::max_abs_diff(val.get(0).x, test.get(0).x), 0.f);
}

TEST(SyntheticCifar10, SamplesWithinClassVary) {
  SyntheticCifar10 ds(tiny_cfg(), Split::Train);
  // Indices 0 and 10 share a class but differ in jitter.
  ASSERT_EQ(ds.get(0).y, ds.get(10).y);
  EXPECT_GT(Tensor::max_abs_diff(ds.get(0).x, ds.get(10).x), 0.01f);
}

TEST(SyntheticDvsCifar, EventTensorIsBinary) {
  SyntheticDvsCifar ds(tiny_cfg(), Split::Train);
  const Sample s = ds.get(3);
  EXPECT_EQ(s.x.shape(), (Shape{8, 8, 8}));  // T*2 = 8 channels
  for (std::int64_t i = 0; i < s.x.numel(); ++i) {
    const float v = s.x[static_cast<std::size_t>(i)];
    EXPECT_TRUE(v == 0.f || v == 1.f);
  }
  EXPECT_EQ(ds.timesteps(), 4);
  EXPECT_EQ(ds.step_channels(), 2);
}

TEST(SyntheticDvsCifar, EventsAreSparseButPresent) {
  SyntheticDvsCifar ds(tiny_cfg(), Split::Train);
  double frac = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    frac += ds.get(i).x.nonzero_fraction();
  }
  frac /= 10.0;
  EXPECT_GT(frac, 0.005);  // motion generates events
  EXPECT_LT(frac, 0.6);    // but they stay sparse
}

// FNV-1a over the first samples of every split (event bits and labels)
// of the 8x8, T = 4 event data at data seed 12.
std::uint64_t dvs_cifar_hash() {
  SyntheticConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.timesteps = 4;
  cfg.train_size = 200;
  cfg.val_size = 256;
  cfg.test_size = 2048;
  cfg.seed = 12;
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((word >> (8 * b)) & 0xFFu)) * 1099511628211ULL;
    }
  };
  for (Split split : {Split::Train, Split::Val, Split::Test}) {
    const SyntheticDvsCifar ds(cfg, split);
    for (std::size_t i = 0; i < 16; ++i) {
      const Sample s = ds.get(i);
      for (std::int64_t j = 0; j < s.x.numel(); ++j) {
        std::uint32_t bits;
        std::memcpy(&bits, s.x.data() + j, sizeof bits);
        mix(bits);
      }
      mix(static_cast<std::uint32_t>(s.y));
    }
  }
  return h;
}

TEST(SyntheticDvsCifar, SamplesArePinned) {
  // Generator speed-ups must leave every event bit where it was.
  EXPECT_EQ(dvs_cifar_hash(), 16925286424514088283ULL);
}

TEST(SyntheticDvsGesture, ElevenClasses) {
  SyntheticDvsGesture ds(tiny_cfg(), Split::Train);
  EXPECT_EQ(ds.num_classes(), 11);
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < ds.size(); ++i) seen.insert(ds.get(i).y);
  EXPECT_EQ(seen.size(), 11u);
}

TEST(SyntheticDvsGesture, MotionCarriesSignal) {
  SyntheticDvsGesture ds(tiny_cfg(), Split::Train);
  // Different gestures produce different event streams for matched jitter
  // positions (same sample index modulo class count differs in class).
  const Sample a = ds.get(0);
  const Sample b = ds.get(1);
  EXPECT_NE(a.y, b.y);
  EXPECT_GT(Tensor::max_abs_diff(a.x, b.x), 0.f);
}

TEST(SyntheticConfig, SplitOffsetsAreDisjoint) {
  const SyntheticConfig cfg = tiny_cfg();
  EXPECT_EQ(cfg.split_offset(Split::Train), 0u);
  EXPECT_EQ(cfg.split_offset(Split::Val), 40u);
  EXPECT_EQ(cfg.split_offset(Split::Test), 60u);
  EXPECT_EQ(cfg.split_size(Split::Val), 20u);
}

TEST(StackSamples, StacksAlongNewAxis) {
  Tensor a = Tensor::full(Shape{2, 3}, 1.f);
  Tensor b = Tensor::full(Shape{2, 3}, 2.f);
  Tensor s = stack_samples({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 1, 2}), 1.f);
  EXPECT_FLOAT_EQ(s.at({1, 0, 0}), 2.f);
}

TEST(DataLoader, BatchesCoverDataset) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_cfg(), Split::Train);
  DataLoader loader(*ds, 16, false, 1);
  EXPECT_EQ(loader.batches_per_epoch(), 3u);  // 40 = 16+16+8
  loader.start_epoch(0);
  Batch batch;
  std::size_t total = 0;
  std::vector<std::int64_t> sizes;
  while (loader.next(batch)) {
    total += batch.y.size();
    sizes.push_back(batch.size());
  }
  EXPECT_EQ(total, 40u);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 8);
}

TEST(DataLoader, ShuffleIsDeterministicPerEpoch) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_cfg(), Split::Train);
  DataLoader a(*ds, 8, true, 5);
  DataLoader b(*ds, 8, true, 5);
  a.start_epoch(3);
  b.start_epoch(3);
  Batch ba, bb;
  ASSERT_TRUE(a.next(ba));
  ASSERT_TRUE(b.next(bb));
  EXPECT_EQ(ba.y, bb.y);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(ba.x, bb.x), 0.f);
}

TEST(DataLoader, DifferentEpochsShuffleDifferently) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_cfg(), Split::Train);
  DataLoader loader(*ds, 40, true, 5);
  Batch e0, e1;
  loader.start_epoch(0);
  loader.next(e0);
  loader.start_epoch(1);
  loader.next(e1);
  EXPECT_NE(e0.y, e1.y);
}

TEST(DataLoader, NoShuffleKeepsOrder) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_cfg(), Split::Train);
  DataLoader loader(*ds, 40, false, 5);
  loader.start_epoch(0);
  Batch batch;
  ASSERT_TRUE(loader.next(batch));
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(batch.y[i], ds->get(i).y);
  }
}

TEST(DataLoader, FullBatchMaterializesAll) {
  auto ds = std::make_shared<SyntheticDvsCifar>(tiny_cfg(), Split::Val);
  DataLoader loader(*ds, 4, false, 1);
  const Batch full = loader.full_batch();
  EXPECT_EQ(full.size(), 20);
  EXPECT_EQ(full.x.shape(), (Shape{20, 8, 8, 8}));
}

}  // namespace
}  // namespace snnskip
