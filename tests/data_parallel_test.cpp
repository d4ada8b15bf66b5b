// Tests for the deterministic data-parallel engine and the parallel
// candidate evaluator (DESIGN.md §5f): the shard decomposition and tree
// reduction are bit-for-bit invariant to the worker count, shards == 1
// reproduces the legacy serial step exactly, and the parallel BO path
// journals a replay-stable trajectory.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/adapter.h"
#include "core/evaluator.h"
#include "core/parallel_evaluator.h"
#include "data/synthetic_dvs_cifar.h"
#include "models/zoo.h"
#include "train/data_parallel.h"
#include "train/evaluate.h"
#include "train/trainer.h"

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

Network tiny_net() {
  const ModelConfig mc = tiny_model();
  return build_model("single_block", mc,
                     default_adjacencies("single_block", mc));
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

Batch first_batch(const Dataset& ds, std::int64_t batch_size) {
  DataLoader loader(ds, batch_size, /*shuffle=*/false, 0);
  loader.start_epoch(0);
  Batch batch;
  EXPECT_TRUE(loader.next(batch));
  return batch;
}

/// Bitwise parameter equality (values AND grads).
void expect_params_identical(Network& a, Network& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<std::size_t>(pa[i]->value.numel()) *
                              sizeof(float)),
              0)
        << "value mismatch at parameter " << i << " (" << pa[i]->name << ")";
    EXPECT_EQ(std::memcmp(pa[i]->grad.data(), pb[i]->grad.data(),
                          static_cast<std::size_t>(pa[i]->grad.numel()) *
                              sizeof(float)),
              0)
        << "grad mismatch at parameter " << i << " (" << pa[i]->name << ")";
  }
}

// --- shard decomposition -----------------------------------------------------

TEST(ShardRange, PartitionCoversRangeDisjointly) {
  for (std::int64_t n : {1, 7, 8, 10, 16, 33}) {
    for (std::int64_t shards : {1, 2, 4, 8}) {
      const std::int64_t s_eff = std::min(shards, n);
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (std::int64_t s = 0; s < s_eff; ++s) {
        const auto [b, e] = DataParallelEngine::shard_range(n, s_eff, s);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(e, n);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " shards=" << s_eff;
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(DataParallelConfigResolve, WorkersComeFromEnvWhenUnset) {
  unsetenv("SNNSKIP_WORKERS");
  EXPECT_EQ(DataParallelEngine::resolve_workers({}), 1);
  setenv("SNNSKIP_WORKERS", "4", 1);
  EXPECT_EQ(DataParallelEngine::resolve_workers({}), 4);
  DataParallelConfig explicit_cfg;
  explicit_cfg.workers = 2;  // explicit config wins over the env
  EXPECT_EQ(DataParallelEngine::resolve_workers(explicit_cfg), 2);
  unsetenv("SNNSKIP_WORKERS");
  // Shard resolution: the explicit config, else the fixed default of 8.
  EXPECT_EQ(DataParallelEngine::resolve_shards({}), 8);
  DataParallelConfig pinned;
  pinned.shards = 16;
  EXPECT_EQ(DataParallelEngine::resolve_shards(pinned), 16);
}

// --- encoder shard streams ---------------------------------------------------

TEST(EncoderCloneShard, PoissonStreamsAreDecorrelatedAndReproducible) {
  PoissonEncoder base(123, 1.f);
  Rng rng(9);
  const Tensor x = Tensor::rand(Shape{2, 2, 4, 4}, rng, 0.2f, 0.8f);

  auto a0 = base.clone_shard(0);
  auto a0_again = base.clone_shard(0);
  auto a1 = base.clone_shard(1);
  ASSERT_TRUE(a0 && a0_again && a1);
  const Tensor s0 = a0->encode(x, 0);
  const Tensor s0_again = a0_again->encode(x, 0);
  const Tensor s1 = a1->encode(x, 0);
  EXPECT_EQ(Tensor::max_abs_diff(s0, s0_again), 0.f);
  EXPECT_GT(Tensor::max_abs_diff(s0, s1), 0.f);
}

TEST(EncoderCloneShard, StatelessEncodersCloneAndBaseRefuses) {
  DirectEncoder direct;
  EXPECT_NE(direct.clone_shard(3), nullptr);
  EventEncoder event(4, 2);
  EXPECT_NE(event.clone_shard(0), nullptr);
  LatencyEncoder latency(4);
  EXPECT_NE(latency.clone_shard(1), nullptr);
}

// --- bit-for-bit worker invariance ------------------------------------------

// One sharded step at a given worker count; returns the trained net.
Network dp_step(std::int64_t workers, std::int64_t shards, const Batch& batch) {
  Network net = tiny_net();
  EventEncoder enc(4, 2);
  DataParallelConfig cfg;
  cfg.workers = workers;
  cfg.shards = shards;
  cfg.replica_factory = [] { return tiny_net(); };
  DataParallelEngine engine(net, cfg, enc, /*timesteps=*/4,
                            LossKind::MeanLogitCE);
  EXPECT_TRUE(engine.enabled());
  auto params = net.parameters();
  Sgd opt(params, 0.05f, 0.9f, 0.f);
  engine.train_batch(batch, opt, 5.f);
  return net;
}

TEST(DataParallel, TrainBatchBitIdenticalAt1248Workers) {
  SyntheticDvsCifar ds(tiny_data(), Split::Train);
  const Batch batch = first_batch(ds, 10);
  Network reference = dp_step(/*workers=*/1, /*shards=*/4, batch);
  for (std::int64_t workers : {2, 4, 8}) {
    Network net = dp_step(workers, /*shards=*/4, batch);
    expect_params_identical(reference, net);
  }
}

TEST(DataParallel, LossAndGradNormIdenticalAcrossWorkers) {
  SyntheticDvsCifar ds(tiny_data(), Split::Train);
  const Batch batch = first_batch(ds, 10);

  auto run = [&](std::int64_t workers, double* loss, double* norm) {
    Network net = tiny_net();
    EventEncoder enc(4, 2);
    DataParallelConfig cfg;
    cfg.workers = workers;
    cfg.shards = 8;
    cfg.replica_factory = [] { return tiny_net(); };
    DataParallelEngine engine(net, cfg, enc, 4, LossKind::MeanLogitCE);
    auto params = net.parameters();
    Sgd opt(params, 0.05f, 0.9f, 0.f);
    *loss = engine.train_batch(batch, opt, 5.f, norm);
  };

  double loss1 = 0, norm1 = 0;
  run(1, &loss1, &norm1);
  for (std::int64_t workers : {2, 8}) {
    double loss = 0, norm = 0;
    run(workers, &loss, &norm);
    EXPECT_EQ(loss, loss1);  // bitwise: the reduction tree is fixed-shape
    EXPECT_EQ(norm, norm1);
  }
}

TEST(DataParallel, FitBitIdenticalAcrossWorkers) {
  auto train_ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);

  auto run_fit = [&](std::int64_t workers) {
    Network net = tiny_net();
    TrainConfig cfg = tiny_train();
    cfg.data_parallel.workers = workers;
    cfg.data_parallel.shards = 4;
    cfg.data_parallel.replica_factory = [] { return tiny_net(); };
    fit(net, NeuronMode::Spiking, train_ds, nullptr, cfg);
    return net;
  };

  Network reference = run_fit(1);
  for (std::int64_t workers : {2, 4, 8}) {
    Network net = run_fit(workers);
    expect_params_identical(reference, net);
  }
}

TEST(DataParallel, ShardsOneFallsBackToLegacySerialPath) {
  auto train_ds = std::make_shared<SyntheticDvsCifar>(tiny_data(), Split::Train);

  Network legacy = tiny_net();
  {
    TrainConfig cfg = tiny_train();
    fit(legacy, NeuronMode::Spiking, train_ds, nullptr, cfg);
  }
  Network shim = tiny_net();
  {
    TrainConfig cfg = tiny_train();
    cfg.data_parallel.shards = 1;  // engine disabled -> legacy path
    cfg.data_parallel.workers = 8;
    cfg.data_parallel.replica_factory = [] { return tiny_net(); };
    fit(shim, NeuronMode::Spiking, train_ds, nullptr, cfg);
  }
  expect_params_identical(legacy, shim);
}

TEST(DataParallel, SingleSampleBatchUsesLegacyStep) {
  SyntheticDvsCifar ds(tiny_data(), Split::Train);
  const Batch batch = first_batch(ds, 1);

  Network legacy = tiny_net();
  {
    EventEncoder enc(4, 2);
    auto params = legacy.parameters();
    Sgd opt(params, 0.05f, 0.9f, 0.f);
    train_batch(legacy, enc, batch, 4, opt, 5.f);
  }
  Network sharded = tiny_net();
  {
    EventEncoder enc(4, 2);
    DataParallelConfig cfg;
    cfg.shards = 8;
    cfg.replica_factory = [] { return tiny_net(); };
    DataParallelEngine engine(sharded, cfg, enc, 4, LossKind::MeanLogitCE);
    auto params = sharded.parameters();
    Sgd opt(params, 0.05f, 0.9f, 0.f);
    engine.train_batch(batch, opt, 5.f);  // N == 1 -> legacy delegation
  }
  expect_params_identical(legacy, sharded);
}

TEST(DataParallel, MismatchedReplicaFactoryThrows) {
  Network net = tiny_net();
  EventEncoder enc(4, 2);
  DataParallelConfig cfg;
  cfg.shards = 2;
  cfg.replica_factory = [] {
    ModelConfig mc = tiny_model();
    mc.width = 8;  // different channel widths -> different layout
    return build_model("single_block", mc,
                       default_adjacencies("single_block", mc));
  };
  EXPECT_THROW(DataParallelEngine(net, cfg, enc, 4, LossKind::MeanLogitCE),
               std::runtime_error);
}

// --- parallel candidate evaluation ------------------------------------------

CandidateEvaluator make_tiny_evaluator() {
  EvaluatorConfig cfg;
  cfg.model = "single_block";
  cfg.model_cfg = tiny_model();
  cfg.finetune = tiny_train();
  cfg.scratch = tiny_train();
  cfg.seed = 7;
  SyntheticConfig data = tiny_data();
  data.train_size = 30;
  return CandidateEvaluator(cfg, make_datasets("cifar10-dvs", data));
}

SearchTrace bo_trace_at(CandidateEvaluator& ev, const BoConfig& bo,
                        std::int64_t workers) {
  ParallelCandidateEvaluator parallel(ev, {.workers = workers});
  return run_bayes_opt(make_parallel_bo_problem(ev, parallel), bo);
}

std::vector<EncodingVec> sample_codes(const CandidateEvaluator& ev,
                                      std::size_t k) {
  Rng rng(77);
  std::vector<EncodingVec> codes;
  for (std::size_t i = 0; i < k; ++i) codes.push_back(ev.space().sample(rng));
  return codes;
}

TEST(ParallelEvaluator, BatchResultsIdenticalAcrossWorkers) {
  CandidateEvaluator serial_ev = make_tiny_evaluator();
  CandidateEvaluator parallel_ev = make_tiny_evaluator();
  const std::vector<EncodingVec> codes = sample_codes(serial_ev, 3);

  ParallelCandidateEvaluator one(serial_ev, {.workers = 1});
  ParallelCandidateEvaluator four(parallel_ev, {.workers = 4});
  const auto ra = one.evaluate_shared_batch(0, codes);
  const auto rb = four.evaluate_shared_batch(0, codes);

  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].objective, rb[i].objective);  // bitwise doubles
    EXPECT_EQ(ra[i].val_accuracy, rb[i].val_accuracy);
    EXPECT_EQ(ra[i].failed, rb[i].failed);
  }
  EXPECT_TRUE(serial_ev.store().identical_to(parallel_ev.store()));
  EXPECT_EQ(serial_ev.evaluations(), 3u);
  EXPECT_EQ(parallel_ev.evaluations(), 3u);
}

TEST(ParallelEvaluator, CandidateSeedIsReplayStable) {
  EXPECT_EQ(CandidateEvaluator::candidate_seed(17, 4),
            CandidateEvaluator::candidate_seed(17, 4));
  EXPECT_NE(CandidateEvaluator::candidate_seed(17, 4),
            CandidateEvaluator::candidate_seed(17, 5));
}

TEST(ParallelEvaluator, BoJournalReplayReproducesTrajectory) {
  const std::string path =
      testing::TempDir() + "data_parallel_bo_journal.jsonl";
  std::remove(path.c_str());

  BoConfig bo;
  bo.iterations = 1;
  bo.batch_k = 2;
  bo.initial_design = 2;
  bo.candidate_pool = 8;
  bo.seed = 11;
  bo.journal_path = path;

  CandidateEvaluator ev_live = make_tiny_evaluator();
  const SearchTrace live = bo_trace_at(ev_live, bo, 4);
  ASSERT_EQ(live.observations.size(), 4u);
  EXPECT_EQ(live.replayed, 0u);

  // Fresh evaluator, same journal: the whole trajectory replays — zero
  // live fine-tunes — and matches the recorded one observation-for-
  // observation.
  CandidateEvaluator ev_replay = make_tiny_evaluator();
  const SearchTrace replayed = bo_trace_at(ev_replay, bo, 4);
  EXPECT_EQ(replayed.replayed, replayed.observations.size());
  EXPECT_EQ(ev_replay.evaluations(), 0u);
  ASSERT_EQ(replayed.observations.size(), live.observations.size());
  for (std::size_t i = 0; i < live.observations.size(); ++i) {
    EXPECT_EQ(replayed.observations[i].code, live.observations[i].code);
    EXPECT_EQ(replayed.observations[i].value, live.observations[i].value);
  }
  EXPECT_EQ(replayed.best, live.best);
  std::remove(path.c_str());
}

TEST(ParallelEvaluator, TruncatedJournalResumesWithStableSeeds) {
  const std::string path =
      testing::TempDir() + "data_parallel_bo_journal_trunc.jsonl";
  std::remove(path.c_str());

  BoConfig bo;
  bo.iterations = 1;
  bo.batch_k = 2;
  bo.initial_design = 2;
  bo.candidate_pool = 8;
  bo.seed = 11;
  bo.journal_path = path;

  CandidateEvaluator ev_live = make_tiny_evaluator();
  const SearchTrace live = bo_trace_at(ev_live, bo, 1);

  // Simulate a crash after the initial design: keep the first two rows.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n";
  }

  // Resume with a different worker count. Proposals are a pure function of
  // (config seed, observed values), and the replayed prefix restores the
  // recorded values — so every CODE matches the uninterrupted run, and the
  // prefix VALUES match exactly. (Suffix values may differ: the journal
  // replays observations, not the weight-store evolution behind them.)
  CandidateEvaluator ev_resume = make_tiny_evaluator();
  const SearchTrace resumed = bo_trace_at(ev_resume, bo, 4);
  EXPECT_EQ(resumed.replayed, 2u);
  ASSERT_EQ(resumed.observations.size(), live.observations.size());
  for (std::size_t i = 0; i < live.observations.size(); ++i) {
    EXPECT_EQ(resumed.observations[i].code, live.observations[i].code);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(resumed.observations[i].value, live.observations[i].value);
    EXPECT_TRUE(std::isfinite(resumed.observations[i].value));
  }
  EXPECT_TRUE(std::isfinite(resumed.observations[2].value));
  EXPECT_TRUE(std::isfinite(resumed.observations[3].value));
  std::remove(path.c_str());
}

TEST(ParallelEvaluator, LoneRoundCandidateScoresAsInSharedRound) {
  // Evaluation #2 is alone in its round at a budget of 3 and shares its
  // round with #3 at a budget of 4. The store it starts from and its code
  // are the same in both runs, so its score must be too.
  RsConfig rs;
  rs.batch_k = 2;
  rs.seed = 13;
  auto run = [&rs](int budget) {
    CandidateEvaluator ev = make_tiny_evaluator();
    ParallelCandidateEvaluator parallel(ev, {.workers = 2});
    RsConfig cfg = rs;
    cfg.evaluations = budget;
    return run_random_search(make_parallel_bo_problem(ev, parallel), cfg);
  };
  const SearchTrace alone = run(3);
  const SearchTrace shared = run(4);
  ASSERT_EQ(alone.observations.size(), 3u);
  ASSERT_EQ(shared.observations.size(), 4u);
  EXPECT_EQ(alone.observations[2].code, shared.observations[2].code);
  EXPECT_EQ(alone.observations[2].value, shared.observations[2].value);
}

// --- worker count vs search answers ------------------------------------------

TEST(SearchWorkerCount, BoTraceMatchesFourWorkerBatchPathBitwise) {
  BoConfig bo;
  bo.iterations = 1;
  bo.batch_k = 2;
  bo.initial_design = 2;
  bo.candidate_pool = 8;
  bo.seed = 11;

  CandidateEvaluator ev_default = make_tiny_evaluator();
  const SearchTrace reference = bo_trace(ev_default, bo);
  CandidateEvaluator ev_four = make_tiny_evaluator();
  const SearchTrace four = bo_trace_at(ev_four, bo, 4);

  ASSERT_EQ(reference.observations.size(), 4u);
  ASSERT_EQ(four.observations.size(), reference.observations.size());
  for (std::size_t i = 0; i < reference.observations.size(); ++i) {
    EXPECT_EQ(four.observations[i].code, reference.observations[i].code);
    EXPECT_EQ(four.observations[i].value, reference.observations[i].value);
  }
  EXPECT_TRUE(ev_four.store().identical_to(ev_default.store()));
}

// --- random search batching --------------------------------------------------

TEST(RandomSearchBatch, BatchedProposalsMatchSerial) {
  // A cheap synthetic problem: no observe_batch, so batch_k only changes
  // the loop structure and the trajectory must be identical to serial.
  BoProblem problem;
  problem.sample = [](Rng& rng) {
    EncodingVec code(4);
    for (int& v : code) v = static_cast<int>(rng.next() % 3);
    return code;
  };
  problem.featurize = [](const EncodingVec& code) {
    return one_hot_features(code);
  };
  problem.objective = [](const EncodingVec& code) {
    double v = 0;
    for (std::size_t i = 0; i < code.size(); ++i)
      v += static_cast<double>(code[i]) * static_cast<double>(i + 1);
    return v;
  };

  RsConfig serial;
  serial.evaluations = 9;
  serial.seed = 13;
  RsConfig batched = serial;
  batched.batch_k = 4;

  const SearchTrace a = run_random_search(problem, serial);
  const SearchTrace b = run_random_search(problem, batched);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    EXPECT_EQ(a.observations[i].code, b.observations[i].code);
    EXPECT_EQ(a.observations[i].value, b.observations[i].value);
  }
  EXPECT_EQ(a.best_value, b.best_value);
}

TEST(RandomSearchBatch, ObserveBatchReceivesGlobalIndices) {
  BoProblem problem;
  problem.sample = [](Rng& rng) {
    EncodingVec code(3);
    for (int& v : code) v = static_cast<int>(rng.next() % 4);
    return code;
  };
  problem.featurize = [](const EncodingVec& code) {
    return one_hot_features(code);
  };
  problem.objective = [](const EncodingVec&) { return 0.0; };
  std::vector<std::size_t> starts;
  std::vector<std::size_t> sizes;
  problem.observe_batch = [&](std::size_t start,
                              const std::vector<EncodingVec>& codes) {
    starts.push_back(start);
    sizes.push_back(codes.size());
    std::vector<Observation> obs(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      obs[i].code = codes[i];
      obs[i].value = static_cast<double>(start + i);
    }
    return obs;
  };

  RsConfig cfg;
  cfg.evaluations = 7;
  cfg.batch_k = 3;
  cfg.seed = 13;
  const SearchTrace trace = run_random_search(problem, cfg);
  ASSERT_EQ(trace.observations.size(), 7u);
  // Rounds of 3, 3, 1: the final singleton goes through observe_batch too.
  EXPECT_EQ(starts, (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 1}));
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(trace.observations[i].value, static_cast<double>(i));
  }

  // BO with rounds of one after the initial design of 2. The GP's one-hot
  // features take ternary slot values, so BO samples from 0..2.
  problem.sample = [](Rng& rng) {
    EncodingVec code(3);
    for (int& v : code) v = static_cast<int>(rng.next() % 3);
    return code;
  };
  starts.clear();
  sizes.clear();
  BoConfig bo;
  bo.initial_design = 2;
  bo.iterations = 2;
  bo.batch_k = 1;
  bo.candidate_pool = 8;
  bo.seed = 13;
  const SearchTrace bo_run = run_bayes_opt(problem, bo);
  ASSERT_EQ(bo_run.observations.size(), 4u);
  EXPECT_EQ(starts, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1, 1}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bo_run.observations[i].value, static_cast<double>(i));
  }
}

}  // namespace
}  // namespace snnskip
