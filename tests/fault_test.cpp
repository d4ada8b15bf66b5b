// Fault drills for the robustness PR (ISSUE 3): the injection registry
// itself, crash-safe checkpointing under corruption/truncation/failed-I/O,
// divergence recovery in the trainer and candidate evaluator, the
// resumable search journal, and GP fit robustness.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "core/evaluator.h"
#include "fault/inject.h"
#include "opt/bayes_opt.h"
#include "opt/gp.h"
#include "opt/journal.h"
#include "opt/random_search.h"
#include "telemetry/telemetry.h"
#include "train/checkpoint.h"
#include "train/health.h"
#include "train/trainer.h"
#include "util/crc32.h"

namespace snnskip {
namespace {

// Every test disarms all sites on both ends, so a failing assertion in
// one test cannot leak an armed fault into the next.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

// --- injection registry -------------------------------------------------------

TEST_F(FaultTest, UnarmedSitesAreInert) {
  EXPECT_FALSE(fault::any_armed());
  EXPECT_FALSE(SNNSKIP_FAULT("nothing.armed"));
  EXPECT_EQ(fault::hits("nothing.armed"), 0);
  EXPECT_DOUBLE_EQ(fault::payload("nothing.armed"), 0.0);
}

TEST_F(FaultTest, FiresAtRequestedOccurrenceWindow) {
  fault::arm("t.site", {.fire_at = 2, .count = 2});
  EXPECT_TRUE(fault::any_armed());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(SNNSKIP_FAULT("t.site"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false,
                                      false}));
  EXPECT_EQ(fault::hits("t.site"), 6);
}

TEST_F(FaultTest, NegativeCountFiresForever) {
  fault::arm("t.forever", {.fire_at = 1, .count = -1});
  EXPECT_FALSE(SNNSKIP_FAULT("t.forever"));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(SNNSKIP_FAULT("t.forever"));
}

TEST_F(FaultTest, DisarmAndRearmSemantics) {
  fault::arm("t.rearm", {.fire_at = 0, .count = -1, .payload = 7.5});
  EXPECT_TRUE(SNNSKIP_FAULT("t.rearm"));
  EXPECT_DOUBLE_EQ(fault::payload("t.rearm"), 7.5);
  fault::disarm("t.rearm");
  EXPECT_FALSE(fault::any_armed());
  EXPECT_FALSE(SNNSKIP_FAULT("t.rearm"));
  // Re-arming restarts the occurrence counter.
  fault::arm("t.rearm", {.fire_at = 1, .count = 1});
  EXPECT_FALSE(SNNSKIP_FAULT("t.rearm"));
  EXPECT_TRUE(SNNSKIP_FAULT("t.rearm"));
}

// --- crc32 --------------------------------------------------------------------

TEST_F(FaultTest, Crc32KnownVectors) {
  // IEEE 802.3 check value for the standard "123456789" test string.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Incremental == one-shot.
  const std::uint32_t head = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, head), 0xCBF43926u);
}

// --- crash-safe checkpoints ---------------------------------------------------

std::vector<CheckpointEntry> sample_entries() {
  Rng rng(77);
  std::vector<CheckpointEntry> entries;
  entries.push_back({"layer.weight", Tensor::randn(Shape{3, 4}, rng)});
  entries.push_back({"layer.bias", Tensor::randn(Shape{4}, rng)});
  return entries;
}

TEST_F(FaultTest, CheckpointWritesV2MagicAndRoundTrips) {
  const std::string path = testing::TempDir() + "fault_ckpt_v2.bin";
  const auto entries = sample_entries();
  ASSERT_TRUE(save_entries(path, entries));

  std::ifstream in(path, std::ios::binary);
  char magic[8];
  in.read(magic, 8);
  EXPECT_EQ(std::memcmp(magic, "SNNSKIP2", 8), 0);
  in.close();

  std::vector<CheckpointEntry> loaded;
  ASSERT_TRUE(load_entries(path, loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(loaded[0].value, entries[0].value),
                  0.f);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(loaded[1].value, entries[1].value),
                  0.f);
  std::remove(path.c_str());
}

TEST_F(FaultTest, FlippedPayloadByteIsCaughtByCrc) {
  const std::string path = testing::TempDir() + "fault_ckpt_flip.bin";
  ASSERT_TRUE(save_entries(path, sample_entries()));

  // Flip one bit of the final payload byte.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(-1, std::ios::end);
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x10);
  f.seekp(-1, std::ios::end);
  f.write(&b, 1);
  f.close();

  std::vector<CheckpointEntry> loaded{{"sentinel", Tensor(Shape{1})}};
  EXPECT_FALSE(load_entries(path, loaded));
  // All-or-nothing: no partial restore survives a rejected file.
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST_F(FaultTest, TruncatedFileIsRejectedWithoutPartialLoad) {
  const std::string path = testing::TempDir() + "fault_ckpt_trunc.bin";
  ASSERT_TRUE(save_entries(path, sample_entries()));
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  std::vector<CheckpointEntry> loaded{{"sentinel", Tensor(Shape{1})}};
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST_F(FaultTest, BadMagicIsRejected) {
  const std::string path = testing::TempDir() + "fault_ckpt_magic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "SNNSKIP9garbagegarbagegarbage";
  }
  std::vector<CheckpointEntry> loaded;
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

template <typename T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

TEST_F(FaultTest, OversizedDimsRejectedBeforeAllocation) {
  // Header claims two 2^40 dims: numel 2^80 would overflow int64 and the
  // sane-looking per-dim values would each pass a naive range check. The
  // loader must reject against the actual file size without allocating.
  const std::string path = testing::TempDir() + "fault_ckpt_dims.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("SNNSKIP2", 8);
    put(out, static_cast<std::uint64_t>(1));  // one entry
    put(out, static_cast<std::uint32_t>(1));  // name "a"
    out.write("a", 1);
    put(out, static_cast<std::uint32_t>(2));  // ndim
    put(out, static_cast<std::int64_t>(1) << 40);
    put(out, static_cast<std::int64_t>(1) << 40);
    put(out, static_cast<std::uint32_t>(0));  // crc
  }
  std::vector<CheckpointEntry> loaded;
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST_F(FaultTest, AbsurdEntryCountRejected) {
  const std::string path = testing::TempDir() + "fault_ckpt_count.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("SNNSKIP2", 8);
    put(out, static_cast<std::uint64_t>(1) << 60);  // entry count
  }
  std::vector<CheckpointEntry> loaded;
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST_F(FaultTest, LegacyV1FilesAreRejected) {
  // A well-formed checksum-less v1 file: it carries no CRC to verify, so
  // it fails on its magic and nothing is restored.
  const std::string path = testing::TempDir() + "fault_ckpt_v1.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("SNNSKIP1", 8);
    put(out, static_cast<std::uint64_t>(1));
    put(out, static_cast<std::uint32_t>(1));
    out.write("a", 1);
    put(out, static_cast<std::uint32_t>(1));  // ndim
    put(out, static_cast<std::int64_t>(2));   // dim (no crc in v1)
    const float payload[2] = {1.5f, -2.5f};
    out.write(reinterpret_cast<const char*>(payload), sizeof(payload));
  }
  std::vector<CheckpointEntry> loaded{{"sentinel", Tensor(Shape{1})}};
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedWriteFailureLeavesNoFileBehind) {
  const std::string path = testing::TempDir() + "fault_ckpt_wfail.bin";
  fault::arm("checkpoint.write_fail", {.fire_at = 0, .count = 1});
  EXPECT_FALSE(save_entries(path, sample_entries()));
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // The fault window has passed: the retried save succeeds and loads.
  ASSERT_TRUE(save_entries(path, sample_entries()));
  std::vector<CheckpointEntry> loaded;
  EXPECT_TRUE(load_entries(path, loaded));
  std::remove(path.c_str());
}

TEST_F(FaultTest, InjectedTornWriteIsRejectedOnLoad) {
  const std::string path = testing::TempDir() + "fault_ckpt_torn.bin";
  fault::arm("checkpoint.torn", {.fire_at = 0, .count = 1, .payload = 7.0});
  ASSERT_TRUE(save_entries(path, sample_entries()));
  fault::reset();
  std::vector<CheckpointEntry> loaded{{"sentinel", Tensor(Shape{1})}};
  EXPECT_FALSE(load_entries(path, loaded));
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

// --- trainer divergence recovery ----------------------------------------------

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

ModelConfig tiny_model() {
  ModelConfig cfg;
  cfg.mode = NeuronMode::Spiking;
  cfg.in_channels = 2;
  cfg.num_classes = 10;
  cfg.max_timesteps = 4;
  cfg.width = 4;
  cfg.seed = 5;
  return cfg;
}

TrainConfig tiny_train(std::int64_t epochs = 2) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 10;
  cfg.lr = 0.05f;
  cfg.timesteps = 4;
  cfg.seed = 17;
  return cfg;
}

TEST_F(FaultTest, TrainerRecoversFromInjectedNan) {
  const DatasetBundle data = make_datasets("cifar10-dvs", tiny_data());
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  cfg.health.enabled = true;
  cfg.health.max_retries = 2;

  fault::arm("train.nan", {.fire_at = 1, .count = 1});  // poison batch 2
  const FitResult result =
      fit(net, NeuronMode::Spiking, data.train, nullptr, cfg);

  EXPECT_FALSE(result.diverged);
  EXPECT_GE(result.health_retries, 1);
  EXPECT_EQ(result.epochs.size(), 2u);  // the redone epoch still completes
  for (Parameter* p : net.parameters()) {
    const float* v = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(v[i])) << p->name;
    }
  }
}

TEST_F(FaultTest, TrainerFailsAfterRetryBudgetExhausted) {
  const DatasetBundle data = make_datasets("cifar10-dvs", tiny_data());
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train();
  cfg.health.enabled = true;
  cfg.health.max_retries = 2;

  fault::arm("train.nan", {.fire_at = 0, .count = -1});  // every batch
  const FitResult result =
      fit(net, NeuronMode::Spiking, data.train, nullptr, cfg);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.health_retries, 2);
  EXPECT_TRUE(result.epochs.empty());  // no epoch ever completed healthy
}

TEST_F(FaultTest, HealthDisabledKeepsLegacyBehavior) {
  // With the monitor off an injected NaN propagates — proving the guard
  // (not luck) is what saves the guarded runs above.
  const DatasetBundle data = make_datasets("cifar10-dvs", tiny_data());
  const ModelConfig mc = tiny_model();
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  TrainConfig cfg = tiny_train(1);
  ASSERT_FALSE(cfg.health.enabled);

  fault::arm("train.nan", {.fire_at = 0, .count = 1});
  const FitResult result =
      fit(net, NeuronMode::Spiking, data.train, nullptr, cfg);
  EXPECT_FALSE(result.diverged);  // nobody watched
  bool any_nonfinite = false;
  for (Parameter* p : net.parameters()) {
    const float* v = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel() && !any_nonfinite; ++i) {
      any_nonfinite = !std::isfinite(v[i]);
    }
  }
  EXPECT_TRUE(any_nonfinite);
}

// --- candidate evaluator isolation --------------------------------------------

CandidateEvaluator make_tiny_evaluator() {
  EvaluatorConfig cfg;
  cfg.model = "single_block";
  cfg.model_cfg = tiny_model();
  cfg.finetune = tiny_train(1);
  cfg.scratch = tiny_train(1);
  cfg.seed = 7;
  return CandidateEvaluator(cfg, make_datasets("cifar10-dvs", tiny_data()));
}

TEST_F(FaultTest, EvaluatorEnablesHealthGuardByDefault) {
  CandidateEvaluator ev = make_tiny_evaluator();
  EXPECT_TRUE(ev.config().finetune.health.enabled);
  EXPECT_TRUE(ev.config().scratch.health.enabled);
}

TEST_F(FaultTest, FailedCandidateLeavesSharedWeightsUntouched) {
  CandidateEvaluator ev = make_tiny_evaluator();
  const EncodingVec chain(ev.space().num_slots(), 0);
  EncodingVec other = chain;
  other[0] = 2;

  // Healthy first candidate populates the store.
  const CandidateResult first = ev.evaluate_shared(chain);
  ASSERT_FALSE(first.failed);
  const WeightStore before = ev.store();

  // Second candidate diverges past the whole retry budget.
  fault::arm("train.nan", {.fire_at = 0, .count = -1});
  const CandidateResult failed = ev.evaluate_shared(other);
  fault::reset();

  EXPECT_TRUE(failed.failed);
  EXPECT_TRUE(std::isfinite(failed.objective));
  EXPECT_DOUBLE_EQ(failed.objective, ev.config().failure_penalty);
  EXPECT_EQ(failed.health_retries, ev.config().finetune.health.max_retries);
  // Byte-identical store: the diverged fine-tune never leaked through.
  EXPECT_TRUE(ev.store().identical_to(before));

  // The search continues: the same candidate succeeds without the fault.
  const CandidateResult retry = ev.evaluate_shared(other);
  EXPECT_FALSE(retry.failed);
  EXPECT_FALSE(ev.store().identical_to(before));  // healthy update landed
}

TEST_F(FaultTest, SearchSurvivesDivergingCandidateMidBo) {
  // Acceptance drill: a candidate that reliably diverges inside a short
  // BO run is retried, penalized, and the search completes its budget.
  CandidateEvaluator ev = make_tiny_evaluator();
  const BoProblem problem = make_bo_problem(ev);
  BoConfig cfg;
  cfg.initial_design = 2;
  cfg.iterations = 2;
  cfg.batch_k = 1;
  cfg.candidate_pool = 8;
  cfg.seed = 5;

  // Diverge exactly the 2nd candidate: its first batch is occurrence 4
  // (candidate 1 consumed 4), and each of its max_retries+1 = 3 attempts
  // hits one more occurrence before rolling back.
  const std::int64_t batches_per_finetune = 40 / 10;
  fault::arm("train.nan",
             {.fire_at = batches_per_finetune, .count = 3});
  const SearchTrace trace = run_bayes_opt(problem, cfg);
  fault::reset();

  ASSERT_EQ(trace.observations.size(), 4u);
  int failures = 0;
  for (const auto& obs : trace.observations) {
    EXPECT_TRUE(std::isfinite(obs.value));
    failures += obs.failed ? 1 : 0;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_TRUE(trace.observations[1].failed);
  // The search carried on past the failure with healthy evaluations, and
  // the incumbent never comes from a penalized candidate.
  EXPECT_FALSE(trace.observations[2].failed);
  EXPECT_FALSE(trace.observations[3].failed);
  EXPECT_LT(trace.best_value, ev.config().failure_penalty);
}

// --- search journal -----------------------------------------------------------

TEST_F(FaultTest, JournalAppendReplayRoundTrip) {
  const std::string path = testing::TempDir() + "fault_journal_rt.jsonl";
  std::remove(path.c_str());
  {
    SearchJournal j(path);
    ASSERT_TRUE(j.enabled());
    j.append(0, {0, 1, 2}, 0.5, false);
    j.append(1, {2, 2, 0}, 0.123456789012345678, true);
  }
  const auto entries = SearchJournal::replay(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].code, (EncodingVec{0, 1, 2}));
  EXPECT_DOUBLE_EQ(entries[0].value, 0.5);
  EXPECT_FALSE(entries[0].failed);
  // %.17g round-trips doubles exactly.
  EXPECT_DOUBLE_EQ(entries[1].value, 0.123456789012345678);
  EXPECT_TRUE(entries[1].failed);
  std::remove(path.c_str());
}

TEST_F(FaultTest, JournalTornTailIsDroppedAndRepaired) {
  const std::string path = testing::TempDir() + "fault_journal_torn.jsonl";
  std::remove(path.c_str());
  {
    SearchJournal j(path);
    j.append(0, {1, 1}, 1.0, false);
    j.append(1, {0, 2}, 2.0, false);
  }
  {
    // Simulate a kill mid-write: a partial final line without newline.
    std::ofstream out(path, std::ios::app);
    out << "{\"idx\": 2, \"code\": [0, 1";
  }
  const auto entries = SearchJournal::replay(path);
  ASSERT_EQ(entries.size(), 2u);
  // The torn fragment was truncated, so appending now yields a valid row.
  {
    SearchJournal j(path);
    j.append(2, {2, 0}, 3.0, false);
  }
  const auto repaired = SearchJournal::replay(path);
  ASSERT_EQ(repaired.size(), 3u);
  EXPECT_DOUBLE_EQ(repaired[2].value, 3.0);
  std::remove(path.c_str());
}

TEST_F(FaultTest, JournalMissingFileReplaysEmpty) {
  EXPECT_TRUE(SearchJournal::replay(testing::TempDir() +
                                    "fault_journal_nope.jsonl")
                  .empty());
  EXPECT_TRUE(SearchJournal::replay("").empty());
  SearchJournal disabled("");
  EXPECT_FALSE(disabled.enabled());
  disabled.append(0, {1}, 1.0, false);  // must be a no-op, not a crash
}

// Toy objective shared by the resume drills (same shape as opt_test's).
BoProblem toy_problem(int slots, int* live_calls) {
  BoProblem p;
  p.sample = [slots](Rng& rng) {
    EncodingVec code(static_cast<std::size_t>(slots));
    for (auto& v : code) v = static_cast<int>(rng.uniform_int(3ULL));
    return code;
  };
  p.featurize = [](const EncodingVec& code) {
    return one_hot_features(code);
  };
  p.objective = [live_calls](const EncodingVec& code) {
    if (live_calls != nullptr) ++*live_calls;
    double v = 0.0;
    for (int c : code) v += (2 - c) * 0.5;
    return v;
  };
  return p;
}

void expect_same_trace(const SearchTrace& a, const SearchTrace& b) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    EXPECT_EQ(a.observations[i].code, b.observations[i].code) << i;
    EXPECT_DOUBLE_EQ(a.observations[i].value, b.observations[i].value) << i;
  }
  ASSERT_EQ(a.best_so_far.size(), b.best_so_far.size());
  for (std::size_t i = 0; i < a.best_so_far.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.best_so_far[i], b.best_so_far[i]) << i;
  }
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
}

TEST_F(FaultTest, BoResumeReproducesBestSoFar) {
  const std::string path = testing::TempDir() + "fault_bo_journal.jsonl";
  std::remove(path.c_str());
  BoConfig cfg;
  cfg.initial_design = 3;
  cfg.iterations = 3;
  cfg.batch_k = 2;
  cfg.candidate_pool = 32;
  cfg.seed = 5;
  cfg.journal_path = path;

  int calls_full = 0;
  const SearchTrace full =
      run_bayes_opt(toy_problem(8, &calls_full), cfg);
  ASSERT_EQ(full.observations.size(), 9u);
  EXPECT_EQ(calls_full, 9);
  EXPECT_EQ(full.replayed, 0u);

  // Restart against the complete journal: zero live evaluations.
  int calls_replay = 0;
  const SearchTrace replayed =
      run_bayes_opt(toy_problem(8, &calls_replay), cfg);
  EXPECT_EQ(calls_replay, 0);
  EXPECT_EQ(replayed.replayed, 9u);
  expect_same_trace(full, replayed);

  // Kill simulation: keep 4 journal rows plus a torn fragment, restart.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 9u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 0; i < 4; ++i) out << lines[static_cast<std::size_t>(i)]
                                    << "\n";
    out << "{\"idx\": 4, \"code\": [1, 0";  // torn mid-write
  }
  int calls_resume = 0;
  const SearchTrace resumed =
      run_bayes_opt(toy_problem(8, &calls_resume), cfg);
  EXPECT_EQ(calls_resume, 5);
  EXPECT_EQ(resumed.replayed, 4u);
  expect_same_trace(full, resumed);

  // The repaired journal is complete again after the resumed run.
  EXPECT_EQ(SearchJournal::replay(path).size(), 9u);
  std::remove(path.c_str());
}

TEST_F(FaultTest, RandomSearchResumeReproducesBestSoFar) {
  const std::string path = testing::TempDir() + "fault_rs_journal.jsonl";
  std::remove(path.c_str());
  RsConfig cfg;
  cfg.evaluations = 10;
  cfg.seed = 9;
  cfg.journal_path = path;

  int calls_full = 0;
  const SearchTrace full =
      run_random_search(toy_problem(6, &calls_full), cfg);
  EXPECT_EQ(calls_full, 10);

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 10u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 0; i < 6; ++i) out << lines[static_cast<std::size_t>(i)]
                                    << "\n";
  }
  int calls_resume = 0;
  const SearchTrace resumed =
      run_random_search(toy_problem(6, &calls_resume), cfg);
  EXPECT_EQ(calls_resume, 4);
  EXPECT_EQ(resumed.replayed, 6u);
  expect_same_trace(full, resumed);
  std::remove(path.c_str());
}

TEST_F(FaultTest, JournalProposalMismatchTruncatesFile) {
  const std::string path = testing::TempDir() + "fault_rs_mismatch.jsonl";
  std::remove(path.c_str());
  RsConfig cfg;
  cfg.evaluations = 10;
  cfg.seed = 9;
  cfg.journal_path = path;
  const SearchTrace full = run_random_search(toy_problem(6, nullptr), cfg);

  // Row 3 records a code the search never proposes: replay stops there.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 10u);
  lines[3] = "{\"idx\": 3, \"code\": [9, 9, 9, 9, 9, 9], \"value\": 0.5, "
             "\"failed\": 0}";
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  int calls = 0;
  const SearchTrace resumed = run_random_search(toy_problem(6, &calls), cfg);
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(resumed.replayed, 3u);
  expect_same_trace(full, resumed);

  // The stale rows are gone from the file, so a second restart replays
  // the resumed run in full.
  const std::vector<JournalEntry> rows = SearchJournal::replay(path);
  ASSERT_EQ(rows.size(), 10u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].code, full.observations[i].code) << i;
  }
  std::remove(path.c_str());
}

TEST_F(FaultTest, NonFiniteObjectiveIsPenalizedNotPropagated) {
  // An objective that returns NaN for a third of the space: the GP must
  // only ever see finite targets, and those points must be marked failed.
  BoProblem p = toy_problem(4, nullptr);
  p.objective = [](const EncodingVec& code) {
    if (code[0] == 1) return std::nan("");
    double v = 0.0;
    for (int c : code) v += (2 - c) * 0.5;
    return v;
  };
  BoConfig cfg;
  cfg.initial_design = 4;
  cfg.iterations = 4;
  cfg.batch_k = 2;
  cfg.candidate_pool = 32;
  cfg.seed = 3;
  const SearchTrace trace = run_bayes_opt(p, cfg);
  ASSERT_EQ(trace.observations.size(), 12u);
  int failed = 0;
  for (const auto& obs : trace.observations) {
    ASSERT_TRUE(std::isfinite(obs.value));
    if (obs.failed) {
      ++failed;
      EXPECT_DOUBLE_EQ(obs.value, cfg.nonfinite_penalty);
      EXPECT_EQ(obs.code[0], 1);
    }
  }
  EXPECT_TRUE(std::isfinite(trace.best_value));
}

// --- GP robustness ------------------------------------------------------------

TEST_F(FaultTest, GpJitterRetriesAreCountedAndSucceed) {
  Telemetry::reset();
  Telemetry::set_enabled(true);
  // Duplicate inputs with zero observation noise make K exactly singular;
  // only the jitter escalation can factor it.
  GaussianProcess gp(std::make_shared<RbfKernel>(1.0, 1.0), 0.0);
  gp.fit({{0.0}, {0.0}, {1.0}}, {1.0, 1.0, 2.0});
  const auto counters = Telemetry::counters();
  Telemetry::set_enabled(false);
  EXPECT_TRUE(gp.fitted());
  const auto it = counters.find("gp.jitter_retries");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second, 1.0);
  // Predictions from the jittered fit stay sane.
  const GpPrediction pred = gp.predict({0.5});
  EXPECT_TRUE(std::isfinite(pred.mean));
  EXPECT_GE(pred.variance, 0.0);
}

TEST_F(FaultTest, GpFallsBackToPriorInsteadOfThrowing) {
  // Non-finite features poison every kernel entry; no jitter can fix
  // that. fit() must degrade to the prior, not throw mid-search.
  GaussianProcess gp(std::make_shared<RbfKernel>(1.0, 1.0), 1e-4);
  const double bad = std::nan("");
  EXPECT_NO_THROW(gp.fit({{bad}, {0.0}}, {1.0, 2.0}));
  EXPECT_FALSE(gp.fitted());
  const GpPrediction pred = gp.predict({0.5});
  EXPECT_DOUBLE_EQ(pred.mean, 0.0);
  EXPECT_GT(pred.variance, 0.0);
}

TEST_F(FaultTest, GpAutoLengthscaleSurvivesDegenerateData) {
  const std::vector<std::vector<double>> x{{std::nan("")}, {0.0}};
  const std::vector<double> y{1.0, 2.0};
  GaussianProcess gp = GaussianProcess::fit_best_lengthscale(
      x, y, {0.5, 1.0, 2.0}, 1.0, 1e-4);
  EXPECT_FALSE(gp.fitted());
  EXPECT_TRUE(std::isfinite(gp.predict({0.0}).mean));
}

}  // namespace
}  // namespace snnskip
