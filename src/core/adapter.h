#pragma once
// The full ANN -> SNN adaptation pipeline (paper Fig. 2):
//
//   1. (static-image datasets) train the ANN twin -> reference accuracy;
//   2. train the vanilla SNN (the architecture's native adjacencies) ->
//      baseline accuracy / firing rate, and seed the shared WeightStore;
//   3. Bayesian-optimize the skip-connection configuration (number,
//      position, type) against the accuracy-drop objective, sharing
//      weights and fine-tuning n epochs per candidate;
//   4. retrain/fine-tune the best candidate on the full budget and report
//      test accuracy, firing rate and MACs.
//
// run_adaptation drives the whole pipeline; bo_trace / rs_trace expose the
// two search regimes separately for the Fig. 3 comparison.

#include "core/evaluator.h"
#include "core/parallel_evaluator.h"
#include "opt/bayes_opt.h"
#include "opt/random_search.h"

namespace snnskip {

struct AdapterConfig {
  std::string model = "resnet18s";
  std::string dataset = "cifar10-dvs";
  SyntheticConfig data_cfg{};
  ModelConfig model_cfg{};
  TrainConfig base_train{};  ///< vanilla SNN / final-candidate budget
  TrainConfig finetune{};    ///< per-candidate fine-tune budget (n epochs)
  /// ANN-reference budget; analog nets prefer smaller LRs than the
  /// surrogate-gradient SNNs. Used only when epochs > 0, else base_train.
  TrainConfig ann_train{.epochs = 0};
  BoConfig bo{};
  std::uint64_t seed = 5;
};

struct AdaptationReport {
  bool has_ann = false;
  double ann_test_acc = 0.0;
  double snn_base_test_acc = 0.0;
  double snn_base_firing_rate = 0.0;
  std::int64_t snn_base_macs = 0;
  double optimized_test_acc = 0.0;
  double optimized_firing_rate = 0.0;
  std::int64_t optimized_macs = 0;
  EncodingVec best_code;
  SearchTrace trace;
  double search_seconds = 0.0;
};

/// BO problem adapter over a CandidateEvaluator (shared-weights regime).
/// Every evaluation goes through evaluate_shared_batch, with up to
/// SNNSKIP_WORKERS candidates of a round fine-tuning at once.
BoProblem make_bo_problem(CandidateEvaluator& evaluator);
/// Same space but the objective trains from scratch (RS baseline regime).
BoProblem make_scratch_problem(CandidateEvaluator& evaluator);
/// make_bo_problem at `parallel`'s worker count instead of SNNSKIP_WORKERS.
/// `parallel` must wrap `evaluator`.
BoProblem make_parallel_bo_problem(CandidateEvaluator& evaluator,
                                   ParallelCandidateEvaluator& parallel);

SearchTrace bo_trace(CandidateEvaluator& evaluator, const BoConfig& cfg);
SearchTrace rs_trace(CandidateEvaluator& evaluator, const RsConfig& cfg);

AdaptationReport run_adaptation(const AdapterConfig& cfg);

}  // namespace snnskip
