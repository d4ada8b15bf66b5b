#include "core/adapter.h"

#include "graph/mac_counter.h"
#include "util/logging.h"
#include "util/runtime_env.h"
#include "util/timer.h"

namespace snnskip {

namespace {

BoProblem space_problem(const CandidateEvaluator& evaluator) {
  BoProblem problem;
  problem.sample = [&evaluator](Rng& rng) {
    return evaluator.space().sample(rng);
  };
  problem.featurize = [](const EncodingVec& code) {
    return one_hot_features(code);
  };
  return problem;
}

// The shared-weights problem: single evaluations are batches of one, and a
// round's batch fine-tunes up to `workers` candidates at once. Observations
// carry the failed flag into the search trace / journal, so a penalized
// candidate is distinguishable from a genuinely bad one.
BoProblem shared_problem(CandidateEvaluator& evaluator, std::int64_t workers) {
  BoProblem problem = space_problem(evaluator);
  problem.objective = [&evaluator](const EncodingVec& code) {
    return evaluator.evaluate_shared(code).objective;
  };
  problem.observe = [&evaluator](const EncodingVec& code) {
    const CandidateResult r = evaluator.evaluate_shared(code);
    return Observation{code, r.objective, r.failed};
  };
  problem.observe_batch = [&evaluator, workers](
                              std::size_t start_idx,
                              const std::vector<EncodingVec>& codes) {
    const std::vector<CandidateResult> results =
        evaluator.evaluate_shared_batch(start_idx, codes, workers);
    std::vector<Observation> observations;
    observations.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      observations.push_back(
          Observation{codes[i], results[i].objective, results[i].failed});
    }
    return observations;
  };
  return problem;
}

}  // namespace

BoProblem make_bo_problem(CandidateEvaluator& evaluator) {
  return shared_problem(evaluator, env::workers(1));
}

BoProblem make_scratch_problem(CandidateEvaluator& evaluator) {
  BoProblem problem = space_problem(evaluator);
  problem.objective = [&evaluator](const EncodingVec& code) {
    return evaluator.evaluate_scratch(code).objective;
  };
  problem.observe = [&evaluator](const EncodingVec& code) {
    const CandidateResult r = evaluator.evaluate_scratch(code);
    return Observation{code, r.objective, r.failed};
  };
  return problem;
}

BoProblem make_parallel_bo_problem(CandidateEvaluator& evaluator,
                                   ParallelCandidateEvaluator& parallel) {
  return shared_problem(evaluator, parallel.workers());
}

SearchTrace bo_trace(CandidateEvaluator& evaluator, const BoConfig& cfg) {
  return run_bayes_opt(make_bo_problem(evaluator), cfg);
}

SearchTrace rs_trace(CandidateEvaluator& evaluator, const RsConfig& cfg) {
  return run_random_search(make_scratch_problem(evaluator), cfg);
}

AdaptationReport run_adaptation(const AdapterConfig& cfg) {
  AdaptationReport report;
  Timer timer;

  DatasetBundle data = make_datasets(cfg.dataset, cfg.data_cfg);

  EvaluatorConfig ecfg;
  ecfg.model = cfg.model;
  ecfg.model_cfg = cfg.model_cfg;
  ecfg.model_cfg.seed = cfg.seed;
  ecfg.finetune = cfg.finetune;
  ecfg.scratch = cfg.base_train;
  ecfg.seed = cfg.seed;
  CandidateEvaluator evaluator(ecfg, data);

  const Shape in_shape{1, data.train->step_channels(),
                       cfg.data_cfg.height, cfg.data_cfg.width};

  // (1) ANN reference on static-image datasets.
  if (data.has_ann_reference) {
    ModelConfig ann_cfg = evaluator.model_config();
    ann_cfg.mode = NeuronMode::Analog;
    ann_cfg.max_timesteps = 1;
    ann_cfg.seed = cfg.seed ^ 0xA11ULL;
    Network ann = build_model(cfg.model, ann_cfg,
                              default_adjacencies(cfg.model, ann_cfg));
    const TrainConfig& ann_train =
        cfg.ann_train.epochs > 0 ? cfg.ann_train : cfg.base_train;
    fit(ann, NeuronMode::Analog, data.train, nullptr, ann_train);
    report.ann_test_acc =
        evaluate(ann, NeuronMode::Analog, *data.test, ann_train).accuracy;
    report.has_ann = true;
    evaluator.set_ann_reference(report.ann_test_acc);
    SNNSKIP_LOG(Info) << cfg.model << "/" << cfg.dataset
                      << " ANN test acc=" << report.ann_test_acc;
  }

  // (2) Vanilla SNN: the architecture's native adjacency, full budget.
  const auto default_adjs =
      default_adjacencies(cfg.model, evaluator.model_config());
  const EncodingVec default_code = evaluator.space().encode(default_adjs);
  {
    Network snn = evaluator.build(default_code);
    fit(snn, NeuronMode::Spiking, data.train, nullptr, cfg.base_train);
    FiringRateRecorder recorder;
    const EvalResult test = evaluate(snn, NeuronMode::Spiking, *data.test,
                                     cfg.base_train, &recorder);
    report.snn_base_test_acc = test.accuracy;
    report.snn_base_firing_rate = test.firing_rate;
    report.snn_base_macs = count_macs(snn, in_shape).total;
    // Seed the shared store with the trained baseline weights.
    evaluator.store().store_from(snn);
    SNNSKIP_LOG(Info) << cfg.model << "/" << cfg.dataset
                      << " vanilla SNN test acc=" << test.accuracy
                      << " rate=" << test.firing_rate;
  }

  // (3) Bayesian optimization over the skip-connection space.
  report.trace = bo_trace(evaluator, cfg.bo);
  report.best_code = report.trace.best;

  // (4) Final training of the winner from the shared weights.
  {
    Network best = evaluator.build(report.best_code);
    evaluator.store().load_into(best);
    fit(best, NeuronMode::Spiking, data.train, nullptr, cfg.base_train);
    FiringRateRecorder recorder;
    const EvalResult test = evaluate(best, NeuronMode::Spiking, *data.test,
                                     cfg.base_train, &recorder);
    report.optimized_test_acc = test.accuracy;
    report.optimized_firing_rate = test.firing_rate;
    report.optimized_macs = count_macs(best, in_shape).total;
    SNNSKIP_LOG(Info) << cfg.model << "/" << cfg.dataset
                      << " optimized SNN test acc=" << test.accuracy
                      << " rate=" << test.firing_rate;
  }

  report.search_seconds = timer.elapsed_s();
  return report;
}

}  // namespace snnskip
