// Tests for the training engine: encoding plans, learning-sanity of the
// BPTT step, grad clipping, weight-store sharing semantics, and schedules.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/synthetic_cifar10.h"
#include "data/synthetic_dvs_cifar.h"
#include "models/zoo.h"
#include "train/checkpoint.h"
#include "train/evaluate.h"
#include "train/schedules.h"
#include "train/trainer.h"
#include "train/weight_store.h"

namespace snnskip {
namespace {

SyntheticConfig tiny_data() {
  SyntheticConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.timesteps = 4;
  cfg.train_size = 40;
  cfg.val_size = 20;
  cfg.test_size = 20;
  cfg.seed = 31;
  return cfg;
}

ModelConfig tiny_model(NeuronMode mode = NeuronMode::Spiking) {
  ModelConfig cfg;
  cfg.mode = mode;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 4;
  cfg.width = 4;
  cfg.seed = 5;
  return cfg;
}

TrainConfig tiny_train() {
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 10;
  cfg.lr = 0.05f;
  cfg.timesteps = 4;
  cfg.seed = 17;
  return cfg;
}

TEST(EncodingPlan, EventDataUsesEventEncoder) {
  auto ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  const EncodingPlan plan =
      make_encoding_plan(*ds, NeuronMode::Spiking, tiny_train());
  EXPECT_EQ(plan.timesteps, 4);
  // One step of encoding slices 2 polarity channels.
  DataLoader loader(*ds, 2, false, 1);
  loader.start_epoch(0);
  Batch b;
  ASSERT_TRUE(loader.next(b));
  const Tensor step = plan.encoder->encode(b.x, 0);
  EXPECT_EQ(step.shape(), (Shape{2, 2, 8, 8}));
}

TEST(EncodingPlan, AnalogModeIsSingleStepDirect) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_data(), Split::Train);
  const EncodingPlan plan =
      make_encoding_plan(*ds, NeuronMode::Analog, tiny_train());
  EXPECT_EQ(plan.timesteps, 1);
}

TEST(EncodingPlan, StaticSpikingUsesConfiguredTimesteps) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_data(), Split::Train);
  TrainConfig cfg = tiny_train();
  cfg.timesteps = 6;
  const EncodingPlan plan = make_encoding_plan(*ds, NeuronMode::Spiking, cfg);
  EXPECT_EQ(plan.timesteps, 6);
}

TEST(EncodingPlan, PoissonEncodingSelectable) {
  auto ds = std::make_shared<SyntheticCifar10>(tiny_data(), Split::Train);
  TrainConfig cfg = tiny_train();
  cfg.encoding = EncodingKind::Poisson;
  const EncodingPlan plan = make_encoding_plan(*ds, NeuronMode::Spiking, cfg);
  DataLoader loader(*ds, 2, false, 1);
  loader.start_epoch(0);
  Batch b;
  ASSERT_TRUE(loader.next(b));
  const Tensor step = plan.encoder->encode(b.x, 0);
  for (std::int64_t i = 0; i < step.numel(); ++i) {
    const float v = step[static_cast<std::size_t>(i)];
    EXPECT_TRUE(v == 0.f || v == 1.f);
  }
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Parameter p("w", Tensor(Shape{4}));
  p.grad = Tensor(Shape{4}, std::vector<float>{3.f, 0.f, 4.f, 0.f});  // norm 5
  const double pre = clip_grad_norm({&p}, 1.f);
  EXPECT_NEAR(pre, 5.0, 1e-5);
  double post = 0.0;
  for (std::int64_t i = 0; i < 4; ++i) {
    post += p.grad[static_cast<std::size_t>(i)] *
            p.grad[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter p("w", Tensor(Shape{2}));
  p.grad = Tensor(Shape{2}, std::vector<float>{0.3f, 0.4f});  // norm 0.5
  clip_grad_norm({&p}, 1.f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.3f);
}

TEST(ClipGradNorm, DisabledWhenNonPositive) {
  Parameter p("w", Tensor(Shape{1}));
  p.grad[0] = 100.f;
  clip_grad_norm({&p}, 0.f);
  EXPECT_FLOAT_EQ(p.grad[0], 100.f);
}

TEST(TrainBatch, ReducesLossOnRepeatedBatch) {
  // Overfit one batch: loss after several steps must drop well below the
  // initial (≈ log 10) value.
  auto ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  DataLoader loader(*ds, 10, false, 1);
  loader.start_epoch(0);
  Batch batch;
  ASSERT_TRUE(loader.next(batch));
  EventEncoder enc(4, 2);
  auto params = net.parameters();
  Sgd opt(params, 0.05f, 0.9f, 0.f);

  const double first = train_batch(net, enc, batch, 4, opt, 5.f);
  double last = first;
  for (int i = 0; i < 14; ++i) {
    last = train_batch(net, enc, batch, 4, opt, 5.f);
  }
  EXPECT_LT(last, first);
}

TEST(Fit, TracksValidationAccuracy) {
  auto train_ds =
      std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  auto val_ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Val);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  cfg.epochs = 2;
  const FitResult result = fit(net, NeuronMode::Spiking, train_ds, val_ds, cfg);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_GE(result.best_val_acc, result.final_val_acc - 1e-9);
  EXPECT_GE(result.best_val_acc, 0.0);
  EXPECT_LE(result.best_val_acc, 1.0);
}

// --- observers --------------------------------------------------------------

// Records every hook invocation as a compact token so ordering tests can
// assert the whole call sequence at once.
class RecordingObserver : public TrainObserver {
 public:
  void on_train_begin(const TrainConfig& cfg) override {
    (void)cfg;
    events.push_back("train_begin");
  }
  void on_epoch_begin(std::int64_t epoch) override {
    events.push_back("epoch_begin:" + std::to_string(epoch));
  }
  void on_batch_end(const BatchStats& stats) override {
    events.push_back("batch:" + std::to_string(stats.epoch) + ":" +
                     std::to_string(stats.batch));
    last_batch = stats;
  }
  void on_epoch_end(const EpochStats& stats) override {
    events.push_back("epoch_end:" + std::to_string(stats.epoch));
  }
  void on_train_end(const FitResult& result) override {
    events.push_back("train_end");
    final_result = result;
  }

  std::vector<std::string> events;
  BatchStats last_batch;
  FitResult final_result;
};

TEST(Observers, HooksFireInDocumentedOrder) {
  auto train_ds =
      std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  auto val_ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Val);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  cfg.epochs = 2;
  RecordingObserver rec;
  cfg.observers.push_back(&rec);
  const FitResult result = fit(net, NeuronMode::Spiking, train_ds, val_ds, cfg);

  // 40 train samples / batch 10 => 4 batches per epoch.
  const std::vector<std::string> expected{
      "train_begin",
      "epoch_begin:0", "batch:0:0", "batch:0:1", "batch:0:2", "batch:0:3",
      "epoch_end:0",
      "epoch_begin:1", "batch:1:0", "batch:1:1", "batch:1:2", "batch:1:3",
      "epoch_end:1",
      "train_end"};
  EXPECT_EQ(rec.events, expected);

  EXPECT_EQ(rec.last_batch.batch_size, 10);
  EXPECT_TRUE(std::isfinite(rec.last_batch.loss));
  ASSERT_EQ(rec.final_result.epochs.size(), 2u);
  EXPECT_EQ(rec.final_result.epochs[1].epoch, 1);
  EXPECT_DOUBLE_EQ(rec.final_result.final_val_acc, result.final_val_acc);
}

TEST(Observers, MultipleObserversAllNotified) {
  auto train_ds =
      std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  RecordingObserver a, b;
  cfg.observers = {&a, &b};
  fit(net, NeuronMode::Spiking, train_ds, nullptr, cfg);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.events.empty());
}

TEST(Observers, VerboseShimStillPrintsEpochLines) {
  auto train_ds =
      std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);
  auto val_ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Val);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  ProgressPrinter printer;  // the per-epoch stderr line format
  cfg.observers = {&printer};
  ::testing::internal::CaptureStderr();
  fit(net, NeuronMode::Spiking, train_ds, val_ds, cfg);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("epoch 0"), std::string::npos);
  EXPECT_NE(err.find("val_acc="), std::string::npos);
}

TEST(Evaluate, ReportsFiringRateWithRecorder) {
  auto ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Val);
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  FiringRateRecorder rec;
  const EvalResult r =
      evaluate(net, NeuronMode::Spiking, *ds, tiny_train(), &rec);
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_GE(r.firing_rate, 0.0);
  EXPECT_LT(r.firing_rate, 1.0);
}

// --- weight store -----------------------------------------------------------

TEST(WeightStore, GetOrInitIsDeterministic) {
  WeightStore a(9), b(9);
  const Tensor& ta = a.get_or_init("k", Shape{3, 4});
  const Tensor& tb = b.get_or_init("k", Shape{3, 4});
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(ta, tb), 0.f);
  WeightStore c(10);  // different seed -> different init
  const Tensor& tc = c.get_or_init("k", Shape{3, 4});
  EXPECT_GT(Tensor::max_abs_diff(ta, tc), 0.f);
}

TEST(WeightStore, GatherScatterRoundTrip) {
  Rng rng(6);
  Tensor full = Tensor::randn(Shape{2, 5, 3, 3}, rng);
  const std::vector<std::int64_t> idx{0, 2, 4};
  Tensor sub = WeightStore::gather_in_dim1(full, idx);
  EXPECT_EQ(sub.shape(), (Shape{2, 3, 3, 3}));
  sub.mul_(2.f);
  WeightStore::scatter_in_dim1(full, sub, idx);
  Tensor sub2 = WeightStore::gather_in_dim1(full, idx);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(sub, sub2), 0.f);
}

TEST(WeightStore, LoadStoreRoundTripSameTopology) {
  const ModelConfig mc = tiny_model();
  Network a = build_model("single_block", mc,
                          default_adjacencies("single_block", mc));
  WeightStore store(3);
  store.store_from(a);

  ModelConfig mc2 = tiny_model();
  mc2.seed = 999;  // different init
  Network b = build_model("single_block", mc2,
                          default_adjacencies("single_block", mc2));
  store.load_into(b);

  // After loading, b's parameters equal a's.
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(Tensor::max_abs_diff(pa[i]->value, pb[i]->value), 0.f)
        << pa[i]->name;
  }
}

TEST(WeightStore, SharesConvSlicesAcrossTopologies) {
  // Store weights from a chain topology; a DSC topology must recover the
  // chain's weights in its main-channel slice.
  const ModelConfig mc = tiny_model();
  Network chain = build_model("single_block", mc, {Adjacency::chain(4)});
  WeightStore store(4);
  store.store_from(chain);

  ModelConfig mc2 = tiny_model();
  mc2.seed = 777;
  Adjacency adj(4);
  adj.set(0, 2, SkipType::DSC);
  Network dsc = build_model("single_block", mc2, {adj});
  store.load_into(dsc);

  // Node 2's conv in the DSC net: first main_in_c input channels must match
  // the chain version's weights.
  Block* cb = chain.blocks()[0];
  Block* db = dsc.blocks()[0];
  auto* cconv = dynamic_cast<Conv2d*>(cb->nodes()[1].op.get());
  auto* dconv = dynamic_cast<Conv2d*>(db->nodes()[1].op.get());
  ASSERT_NE(cconv, nullptr);
  ASSERT_NE(dconv, nullptr);
  const std::int64_t main_c = db->nodes()[1].main_in_c;
  std::vector<std::int64_t> main_idx;
  for (std::int64_t c = 0; c < main_c; ++c) main_idx.push_back(c);
  const Tensor c_main =
      WeightStore::gather_in_dim1(cconv->weight().value, main_idx);
  const Tensor d_main =
      WeightStore::gather_in_dim1(dconv->weight().value, main_idx);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(c_main, d_main), 0.f);
}

TEST(WeightStore, FirstSeenAdoptsCandidateValues) {
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  // Mark a BN gamma with a sentinel, load (first contact seeds the store),
  // and confirm the value survives.
  auto params = net.parameters();
  Parameter* gamma = nullptr;
  for (Parameter* p : params) {
    if (p->name.find("gamma") != std::string::npos) {
      gamma = p;
      break;
    }
  }
  ASSERT_NE(gamma, nullptr);
  gamma->value.fill(2.5f);
  WeightStore store(5);
  store.load_into(net);
  EXPECT_FLOAT_EQ(gamma->value[0], 2.5f);
}

// --- checkpoint corruption (fault_test.cpp has the full drill set) ------------

TEST(Checkpoint, FlippedByteFailsCrcWithoutPartialRestore) {
  const std::string path = testing::TempDir() + "train_ckpt_flip.bin";
  Rng rng(41);
  std::vector<CheckpointEntry> entries;
  entries.push_back({"w", Tensor::randn(Shape{4, 4}, rng)});
  ASSERT_TRUE(save_entries(path, entries));

  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(-2, std::ios::end);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x55);  // guaranteed different byte
  f.seekp(-2, std::ios::end);
  f.write(&b, 1);
  f.close();

  std::vector<CheckpointEntry> loaded{{"stale", Tensor(Shape{1})}};
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationRejectedCleanly) {
  const std::string path = testing::TempDir() + "train_ckpt_trunc.bin";
  Rng rng(42);
  std::vector<CheckpointEntry> entries;
  entries.push_back({"w", Tensor::randn(Shape{8}, rng)});
  ASSERT_TRUE(save_entries(path, entries));
  const auto size = std::filesystem::file_size(path);
  for (const auto cut : {std::uintmax_t{1}, size / 2, size - 9}) {
    std::filesystem::resize_file(path, size - cut);
    std::vector<CheckpointEntry> loaded;
    EXPECT_FALSE(load_entries(path, loaded)) << "cut=" << cut;
    EXPECT_TRUE(loaded.empty());
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveGoesThroughAtomicRename) {
  // After a successful save no .tmp staging file may remain, and an
  // existing checkpoint must survive a failed overwrite attempt intact.
  const std::string path = testing::TempDir() + "train_ckpt_atomic.bin";
  Rng rng(43);
  std::vector<CheckpointEntry> entries;
  entries.push_back({"w", Tensor::randn(Shape{3}, rng)});
  ASSERT_TRUE(save_entries(path, entries));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::vector<CheckpointEntry> loaded;
  EXPECT_TRUE(load_entries(path, loaded));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(loaded[0].value, entries[0].value),
                  0.f);
  std::remove(path.c_str());
}

// --- schedules ----------------------------------------------------------------

TEST(Schedules, CosineEndpoints) {
  EXPECT_NEAR(cosine_lr(1.f, 0, 10), 1.f, 1e-6f);
  EXPECT_NEAR(cosine_lr(1.f, 9, 10), 0.05f, 1e-6f);
  EXPECT_GT(cosine_lr(1.f, 4, 10), cosine_lr(1.f, 5, 10));
}

TEST(Schedules, StepDecay) {
  EXPECT_FLOAT_EQ(step_lr(1.f, 0, 10, 0.1f), 1.f);
  EXPECT_FLOAT_EQ(step_lr(1.f, 10, 10, 0.1f), 0.1f);
  EXPECT_FLOAT_EQ(step_lr(1.f, 25, 10, 0.1f), 0.01f);
}

TEST(Schedules, PaperRecipesMatchSection4) {
  const TrainConfig c10 = paper_recipe("cifar10");
  EXPECT_EQ(c10.opt, OptKind::SgdMomentum);
  EXPECT_FLOAT_EQ(c10.lr, 0.01f);
  EXPECT_FLOAT_EQ(c10.momentum, 0.9f);
  EXPECT_EQ(c10.timesteps, 25);

  const TrainConfig dvs = paper_recipe("cifar10-dvs");
  EXPECT_FLOAT_EQ(dvs.lr, 0.025f);
  EXPECT_EQ(dvs.opt, OptKind::SgdMomentum);

  const TrainConfig gesture = paper_recipe("dvs128-gesture");
  EXPECT_EQ(gesture.opt, OptKind::Adam);
  EXPECT_FLOAT_EQ(gesture.lr, 0.01f);

  EXPECT_THROW(paper_recipe("bogus"), std::invalid_argument);
}

TEST(Schedules, EpochScaleApplies) {
  const TrainConfig half = paper_recipe("cifar10-dvs", 0.5);
  const TrainConfig full = paper_recipe("cifar10-dvs", 1.0);
  EXPECT_LT(half.epochs, full.epochs);
  EXPECT_GE(half.epochs, 1);
}

TEST(DatasetBundles, AllThreeConstruct) {
  for (const auto& name : dataset_names()) {
    const DatasetBundle b = make_datasets(name, tiny_data());
    EXPECT_EQ(b.train->size(), 40u);
    EXPECT_EQ(b.val->size(), 20u);
    EXPECT_EQ(b.test->size(), 20u);
    EXPECT_EQ(b.has_ann_reference, name == "cifar10");
  }
  EXPECT_THROW(make_datasets("bogus", tiny_data()), std::invalid_argument);
}

}  // namespace
}  // namespace snnskip
