// Workload `search`: the paper's Fig. 2 pipeline without the ANN twin, on
// resnet18s and synthetic CIFAR10-DVS.
//
//   supernet phase  fit() on the default topology through the
//                   deterministic data-parallel engine (2 workers);
//   BO phase        weight-shared BO (make_parallel_bo_problem +
//                   run_bayes_opt), k = 2 candidates fine-tuned at once on
//                   2 workers per round.
//
// It is a batch job, so its metrics are work per second at the fixed
// model and data size below. One repetition is the whole pipeline; the
// run repeats it until --seconds have passed and reports medians. Every
// repetition starts from the same state, so every one must produce the
// same BO trajectory — that, and the same trajectory again in the traced
// run, are the workload's output checks. Only the held-out data depends
// on the seed: the model, the training recipe, the training split and the
// BO settings are the system under test and stay fixed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/adapter.h"
#include "helpers.h"
#include "layers.h"
#include "telemetry/trace_export.h"
#include "train/evaluate.h"

namespace e2e {

namespace {

using snnskip::BoConfig;
using snnskip::BoProblem;
using snnskip::CandidateEvaluator;
using snnskip::Dataset;
using snnskip::DatasetBundle;
using snnskip::EncodingVec;
using snnskip::EvaluatorConfig;
using snnskip::Network;
using snnskip::Observation;
using snnskip::ParallelCandidateEvaluator;
using snnskip::ParallelEvalConfig;
using snnskip::Sample;
using snnskip::SearchTrace;
using snnskip::TrainConfig;
using snnskip::Telemetry;

// Model and data size: resnet18s at width 6 on 8x8 two-polarity event
// frames, T = 4. 200 training samples, 256 validation samples (the BO
// objective) and 2048 test samples (the supernet's accuracy).
//
// The supernet budget, 10 epochs of minibatches of 25 at lr 0.15, is
// about the least at which resnet18s learns this data well above chance
// (10%). Where learning sets in within that budget depends on the
// training split, so the split is fixed (data seed kTrainDataSeed, on
// which the supernet reaches about 30%); the seed draws the held-out
// splits. The supernet's test accuracy then shows a regression that
// stops the model learning, and varies across seeds only by sampling.
constexpr std::int64_t kSide = 8;
constexpr std::int64_t kTimesteps = 4;
constexpr std::size_t kTrainSize = 200;
constexpr std::size_t kValSize = 256;
constexpr std::size_t kTestSize = 2048;
constexpr std::uint64_t kTrainDataSeed = 12;
constexpr std::int64_t kWidth = 6;
constexpr std::int64_t kBatch = 25;
constexpr std::int64_t kSupernetEpochs = 10;
constexpr int kBoRounds = 3;
constexpr int kBatchK = 2;
constexpr std::int64_t kWorkers = 2;
/// Set-ups (data generation) before every repetition. Spread over the run,
/// their median does not hang on one second of the shared host.
constexpr int kSetupsPerRep = 8;

/// The generated inputs, materialized once so data generation is set-up
/// cost and not part of the training loop.
class MaterializedDataset final : public Dataset {
 public:
  explicit MaterializedDataset(const Dataset& src)
      : shape_(src.sample_shape()),
        classes_(src.num_classes()),
        timesteps_(src.timesteps()),
        channels_(src.step_channels()),
        name_(src.name()) {
    samples_.reserve(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) samples_.push_back(src.get(i));
  }
  std::size_t size() const override { return samples_.size(); }
  Sample get(std::size_t i) const override { return samples_[i]; }
  snnskip::Shape sample_shape() const override { return shape_; }
  std::int64_t num_classes() const override { return classes_; }
  std::int64_t timesteps() const override { return timesteps_; }
  std::int64_t step_channels() const override { return channels_; }
  std::string name() const override { return name_; }

 private:
  std::vector<Sample> samples_;
  snnskip::Shape shape_;
  std::int64_t classes_, timesteps_, channels_;
  std::string name_;
};

DatasetBundle generate_data(std::uint64_t seed) {
  snnskip::SyntheticConfig cfg;
  cfg.height = kSide;
  cfg.width = kSide;
  cfg.timesteps = kTimesteps;
  cfg.train_size = kTrainSize;
  cfg.val_size = 0;
  cfg.test_size = 0;
  cfg.seed = kTrainDataSeed;
  const DatasetBundle train = snnskip::make_datasets("cifar10-dvs", cfg);
  cfg.train_size = 0;
  cfg.val_size = kValSize;
  cfg.test_size = kTestSize;
  cfg.seed = derive_seed(seed, 1);
  const DatasetBundle held_out = snnskip::make_datasets("cifar10-dvs", cfg);
  DatasetBundle out = train;
  out.train = std::make_shared<MaterializedDataset>(*train.train);
  out.val = std::make_shared<MaterializedDataset>(*held_out.val);
  out.test = std::make_shared<MaterializedDataset>(*held_out.test);
  return out;
}

TrainConfig train_recipe() {
  TrainConfig t;
  t.epochs = 1;
  t.batch_size = kBatch;
  t.lr = 0.15f;
  t.timesteps = kTimesteps;
  t.seed = 17;
  return t;
}

/// Wall time of every supernet training step (one data-parallel
/// minibatch), taken between consecutive progress hooks of fit().
class StepTimer final : public snnskip::TrainObserver {
 public:
  void on_epoch_begin(std::int64_t) override { last_ = Clock::now(); }
  void on_batch_end(const snnskip::BatchStats&) override {
    const Clock::time_point now = Clock::now();
    step_ms.push_back(std::chrono::duration<double, std::milli>(now - last_).count());
    last_ = now;
  }
  std::vector<double> step_ms;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_;
};

struct Rep {
  std::vector<double> step_ms;
  double fit_s = 0.0;
  double bo_s = 0.0;
  std::int64_t samples = 0;
  std::int64_t evals = 0;
  std::int64_t failed = 0;
  double best_acc = 0.0;
  std::vector<Observation> observations;
  // The supernet on the test split, when run_rep was asked to evaluate it.
  double supernet_acc = 0.0;
  double firing_rate = 0.0;
};

Rep run_rep(const DatasetBundle& data, bool evaluate_supernet) {
  Rep rep;
  E2E_SPAN("bench.search");
  EvaluatorConfig ecfg;
  ecfg.model = "resnet18s";
  ecfg.model_cfg.width = kWidth;
  ecfg.model_cfg.seed = 5;
  ecfg.finetune = train_recipe();
  ecfg.seed = 5;
  CandidateEvaluator evaluator(ecfg, data);
  const EncodingVec default_code = evaluator.space().encode(
      snnskip::default_adjacencies(ecfg.model, evaluator.model_config()));

  // Supernet phase.
  Network supernet = evaluator.build(default_code);
  TrainConfig sup = train_recipe();
  sup.epochs = kSupernetEpochs;
  sup.data_parallel.workers = kWorkers;
  sup.data_parallel.replica_factory = [&] {
    return evaluator.build(default_code);
  };
  StepTimer steps;
  sup.observers.push_back(&steps);
  auto t0 = std::chrono::steady_clock::now();
  {
    E2E_SPAN("train.fit");
    snnskip::fit(supernet, snnskip::NeuronMode::Spiking, data.train, nullptr,
                 sup);
  }
  rep.fit_s = seconds_since(t0);
  rep.step_ms = steps.step_ms;
  rep.samples = kSupernetEpochs * static_cast<std::int64_t>(data.train->size());
  evaluator.store().store_from(supernet);

  // BO phase.
  ParallelCandidateEvaluator parallel(evaluator,
                                      ParallelEvalConfig{.workers = kWorkers});
  BoProblem problem = snnskip::make_parallel_bo_problem(evaluator, parallel);
  auto batch = problem.observe_batch;
  problem.observe_batch = [batch](std::size_t start,
                                  const std::vector<EncodingVec>& codes) {
    E2E_SPAN("core.observe_batch");
    return batch(start, codes);
  };
  auto single = problem.observe;
  problem.observe = [single](const EncodingVec& code) {
    E2E_SPAN("core.observe");
    return single(code);
  };
  BoConfig bo;
  bo.initial_design = kBatchK;
  bo.iterations = kBoRounds;
  bo.batch_k = kBatchK;
  bo.candidate_pool = 64;
  bo.noise = 1e-2;
  bo.seed = 11;
  t0 = std::chrono::steady_clock::now();
  SearchTrace trace;
  {
    E2E_SPAN("opt.run_bayes_opt");
    trace = snnskip::run_bayes_opt(problem, bo);
  }
  rep.bo_s = seconds_since(t0);
  rep.observations = trace.observations;
  rep.evals = static_cast<std::int64_t>(trace.observations.size());
  for (const Observation& o : trace.observations) rep.failed += o.failed ? 1 : 0;
  rep.best_acc = -trace.best_value;  // objective = -validation accuracy
  if (evaluate_supernet) {
    // After the search, so the trajectory cannot depend on it.
    E2E_SPAN("train.evaluate_supernet");
    snnskip::FiringRateRecorder recorder;
    const snnskip::EvalResult ev = snnskip::evaluate(
        supernet, snnskip::NeuronMode::Spiking, *data.test, sup, &recorder);
    rep.supernet_acc = ev.accuracy;
    rep.firing_rate = ev.firing_rate;
  }
  return rep;
}

bool same_trajectory(const Rep& a, const Rep& b) {
  if (a.observations.size() != b.observations.size()) return false;
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const Observation& x = a.observations[i];
    const Observation& y = b.observations[i];
    if (x.code != y.code || x.value != y.value || x.failed != y.failed) {
      return false;
    }
  }
  return a.best_acc == b.best_acc;
}

struct Untraced {
  std::vector<Rep> reps;
  double setup_s = 0.0;
  double searches_per_s = 0.0;  ///< whole pipeline: supernet + BO
  double train_samples_per_s = 0.0;
  double search_evals_per_s = 0.0;
  std::vector<double> step_ms;  ///< every supernet step of every rep
};

Untraced measure(const Options& opts, DatasetBundle* data, Result* r) {
  Untraced u;
  std::vector<double> setups;
  // Only the first repetition evaluates the supernet (after its timed
  // phases): every repetition trains the same one.
  const auto start = std::chrono::steady_clock::now();
  do {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      *data = generate_data(opts.seed);
      setups.push_back(seconds_since(t0));
    }
    u.reps.push_back(run_rep(*data, /*evaluate_supernet=*/u.reps.empty()));
  } while (seconds_since(start) < opts.seconds);
  u.setup_s = median(setups);

  std::vector<double> search_rate, train_rate, eval_rate;
  for (const Rep& rep : u.reps) {
    search_rate.push_back(1.0 / (rep.fit_s + rep.bo_s));
    train_rate.push_back(static_cast<double>(rep.samples) / rep.fit_s);
    eval_rate.push_back(static_cast<double>(rep.evals) / rep.bo_s);
    u.step_ms.insert(u.step_ms.end(), rep.step_ms.begin(), rep.step_ms.end());
    r->attempted += rep.evals;
    r->failed += rep.failed;
    if (!same_trajectory(rep, u.reps.front())) {
      r->fail_check("BO trajectory differs between repetitions at one seed");
    }
  }
  u.searches_per_s = median(search_rate);
  u.train_samples_per_s = median(train_rate);
  u.search_evals_per_s = median(eval_rate);
  std::fprintf(stderr, "search: %zu reps, fit %.3fs, bo %.3fs\n", u.reps.size(),
               u.reps.front().fit_s, u.reps.front().bo_s);
  return u;
}

/// Per-layer metrics of one traced repetition.
void traced_metrics(const Options& opts, const DatasetBundle& data,
                    const Untraced& u, Result* r) {
  Telemetry::reset();
  Telemetry::set_enabled(true);
  const Rep rep = run_rep(data, /*evaluate_supernet=*/true);
  Telemetry::set_enabled(false);
  if (!same_trajectory(rep, u.reps.front()) ||
      rep.supernet_acc != u.reps.front().supernet_acc) {
    r->fail_check("BO trajectory or supernet differs between the untraced and traced run");
  }
  const std::string trace_path = opts.work_dir + "/search.trace.json";
  if (!snnskip::write_chrome_trace(trace_path)) {
    r->fail_check("cannot write the Chrome trace " + trace_path);
  }
  const TraceView tv(snnskip::telemetry::snapshot());

  // Attribution: on the main thread every instant of the root span is
  // covered by exactly one innermost span; what stays with the root is
  // time no layer span covers.
  double root_s = 0.0, root_self_s = 0.0;
  for (std::size_t i = 0; i < tv.events().size(); ++i) {
    const SpanEvent& e = tv.events()[i];
    if (e.cat != "bench") continue;
    const double dur_s = static_cast<double>(e.dur_ns) * 1e-9;
    if (e.name == "bench.search") {
      root_s = dur_s;
      root_self_s = static_cast<double>(tv.self_ns()[i]) * 1e-9;
    }
  }
  const double unattributed = root_s > 0.0 ? root_self_s / root_s : 1.0;
  if (unattributed > 0.10) {
    std::fprintf(stderr, "search: layer spans cover only %.1f%% of the wall time\n",
                 100.0 * (1.0 - unattributed));
  }

  // core: per-batch and per-candidate times, straggler ratio.
  std::vector<double> batch_ms = tv.durations_ms("bench", "core.observe_batch");
  std::vector<double> cand_ms = tv.durations_ms("bo", "parallel_candidate");
  double straggler = 0.0;
  {
    std::vector<double> ratios;
    for (const SpanEvent& b : tv.events()) {
      if (b.cat != "bench" || b.name != "core.observe_batch") continue;
      double sum = 0.0;
      int n = 0;
      for (const SpanEvent& c : tv.events()) {
        if (c.cat == "bo" && c.name == "parallel_candidate" &&
            c.ts_ns >= b.ts_ns && c.ts_ns + c.dur_ns <= b.ts_ns + b.dur_ns) {
          sum += static_cast<double>(c.dur_ns);
          ++n;
        }
      }
      if (n > 0) ratios.push_back(static_cast<double>(b.dur_ns) / (sum / n));
    }
    straggler = median(ratios);
  }

  const std::map<std::string, double> layers = tv.layer_self_s("nn");
  auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second;
  };

  const double dp_shard_s = tv.agg_total_s("train", "dp.shard");
  const double dp_batch_s = tv.agg_total_s("train", "dp.batch");
  const double fwd = tv.counter("dispatch.sparse") + tv.counter("dispatch.dense");
  const double bwd =
      tv.counter("dispatch.bwd.sparse") + tv.counter("dispatch.bwd.dense");
  const double elements = tv.counter("dispatch.elements");

  // run_bayes_opt's self time: its only child spans are the objective
  // calls, so what remains is proposing (GP fit + acquisition).
  r->add("opt.propose_s", layer("opt"), "s");
  r->add("opt.gp_jitter_retries", tv.counter("gp.jitter_retries"), "count");
  r->add("core.batch_s.p50", median(batch_ms) * 1e-3, "s");
  r->add("core.candidate_s.p50", median(cand_ms) * 1e-3, "s");
  r->add("core.straggler_ratio", straggler, "ratio");
  r->add("core.candidate_ok_ratio",
         rep.evals > 0 ? static_cast<double>(rep.evals - rep.failed) /
                             static_cast<double>(rep.evals)
                       : 0.0,
         "ratio");
  r->add("core.self_s", layer("core"), "s");
  r->add("train.forward_s", tv.agg_total_s("train", "batch.forward"), "s");
  r->add("train.backward_s", tv.agg_total_s("train", "batch.backward"), "s");
  r->add("train.step_s", tv.agg_total_s("train", "batch.step"), "s");
  r->add("train.dp_efficiency",
         dp_batch_s > 0.0 ? dp_shard_s / (kWorkers * dp_batch_s) : 0.0, "ratio");
  r->add("train.health_rollbacks", tv.counter("health.rollbacks"), "count");
  r->add("train.evaluate_s", tv.agg_total_s("train", "evaluate"), "s");
  r->add("train.self_s", layer("train"), "s");
  r->add("nn.conv_fwd_s", tv.self_s("conv.fwd"), "s");
  r->add("nn.conv_bwd_s", tv.self_s("conv.bwd"), "s");
  r->add("nn.self_s", layer("nn"), "s");
  r->add("snn.neuron_s", tv.self_s("lif") + tv.self_s("plif"), "s");
  r->add("snn.firing_rate", rep.firing_rate, "ratio");
  r->add("graph.self_s", layer("graph"), "s");
  r->add("tensor.fwd_sparse_share",
         fwd > 0.0 ? tv.counter("dispatch.sparse") / fwd : 0.0, "ratio");
  r->add("tensor.bwd_sparse_share",
         bwd > 0.0 ? tv.counter("dispatch.bwd.sparse") / bwd : 0.0, "ratio");
  r->add("tensor.fwd_density",
         elements > 0.0 ? tv.counter("dispatch.nnz") / elements : 0.0, "ratio");
  r->add("tensor.gemm_s", tv.agg_total_s("gemm"), "s");
  r->add("attr.unattributed_share", unattributed, "ratio");
  // Traced over untraced time of one search (the primary figure).
  r->add("trace.overhead_ratio", u.searches_per_s * (rep.fit_s + rep.bo_s), "ratio");
}

}  // namespace

Result run_search(const Options& opts) {
  Result r;
  DatasetBundle data;
  const Untraced u = measure(opts, &data, &r);
  const double tail = supported_percentile(u.step_ms.size());
  const std::vector<Metric> named = {
      {"searches_per_s", u.searches_per_s, "1/s"},
      {"train_samples_per_s", u.train_samples_per_s, "samples/s"},
      {"search_evals_per_s", u.search_evals_per_s, "evals/s"},
      {"search_best_acc", u.reps.front().best_acc, "ratio"},
      {"supernet_acc", u.reps.front().supernet_acc, "ratio"},
      {"step_ms.p50", median(u.step_ms), "ms"},
      {"step_ms.tail", percentile(u.step_ms, tail), "ms"},
      {"tail_percentile", tail, "pct"},
  };
  print_named("search", named);
  if (!opts.trace) {
    r.add("throughput_per_s", u.searches_per_s, "1/s");
    r.add("latency_ms", median(u.step_ms), "ms");
    r.add("quality", u.reps.front().supernet_acc, "ratio");
    r.add("setup_s", u.setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }
  for (const Metric& m : named) r.add("e2e." + m.name, m.value, m.unit);
  traced_metrics(opts, data, u, &r);
  return r;
}

}  // namespace e2e
