#pragma once
// Candidate evaluation (the expensive f(A) inside the BO loop).
//
// Two regimes, matching the paper's comparison:
//   evaluate_shared_batch — the proposed method: fine-tune each candidate of
//                      a BO round for n epochs from the supernet weights in
//                      the shared WeightStore, read validation accuracy,
//                      merge the healthy candidates' weights back.
//                      evaluate_shared is a batch of one.
//   evaluate_scratch — the random-search baseline's regime: fresh weights,
//                      full training budget, no sharing.
//
// Shared evaluation has one semantics at every worker count (DESIGN.md
// §5f): each candidate of a batch is a pure function of (the store at
// batch entry, its code, its GLOBAL evaluation index), never of the
// schedule.
//   * every candidate fine-tunes on a private copy of the store as it
//     stands at batch entry, so get_or_init never races and no candidate
//     sees a sibling's weights;
//   * its fine-tune seed is candidate_seed(finetune.seed, index), so a
//     journal-resumed search re-derives the same seeds;
//   * healthy candidates merge back via store_from in index order on the
//     calling thread; a failed candidate merges nothing.
// The worker count only sets how many fine-tunes run at once.
//
// The objective handed to the optimizer is the ACCURACY DROP versus the ANN
// reference when one exists (static-image datasets), otherwise the negated
// validation accuracy — both minimized.

#include <optional>
#include <vector>

#include "core/search_space.h"
#include "metrics/energy.h"
#include "models/zoo.h"
#include "train/evaluate.h"
#include "train/trainer.h"
#include "train/weight_store.h"

namespace snnskip {

struct CandidateResult {
  double val_accuracy = 0.0;
  double firing_rate = 0.0;
  std::int64_t macs = 0;       ///< per timestep, batch of one
  double energy_pj = 0.0;      ///< spike-driven inference energy estimate
  double objective = 0.0;      ///< what the optimizer minimizes
  /// Training diverged past the health monitor's retry budget (or the
  /// metrics came back non-finite). The objective is then the finite
  /// failure penalty, and for shared evaluation the candidate merged
  /// nothing into the WeightStore.
  bool failed = false;
  int health_retries = 0;      ///< rollbacks spent during the fine-tune
};

struct EvaluatorConfig {
  std::string model = "resnet18s";
  ModelConfig model_cfg{};     ///< in_channels / classes / T set from data
  TrainConfig finetune{};      ///< the n-epoch shared-weights budget
  TrainConfig scratch{};       ///< the from-scratch budget (RS baseline)
  std::uint64_t seed = 3;

  /// Energy-aware trade-off weight lambda (paper contribution: "optimize
  /// the trade-off between accuracy drop and energy efficiency"). The
  /// minimized objective becomes
  ///   drop(A) + lambda * energy(A) / energy(reference)
  /// where energy is the spike-driven inference estimate (metrics/energy.h)
  /// and the reference is set via set_energy_reference (the vanilla SNN).
  /// lambda == 0 reproduces the pure accuracy objective.
  double energy_weight = 0.0;
  EnergyModel energy_model{};

  /// Include one-step-delayed backward connections in the search space
  /// (the paper's future-work extension; see graph/adjacency.h).
  bool include_recurrent = false;

  /// Objective assigned to failed (diverged) candidates: finite and worse
  /// than any achievable value in both objective regimes (drop <= 1,
  /// -accuracy <= 0), but moderate enough not to wreck the GP's target
  /// standardization the way a 1e9 sentinel would.
  double failure_penalty = 2.0;

  /// Apply the health guard (with the SNNSKIP_MAX_RETRIES budget) to
  /// candidate trainings unless the TrainConfigs already enable one.
  bool guard_candidates = true;
};

class CandidateEvaluator {
 public:
  CandidateEvaluator(EvaluatorConfig cfg, DatasetBundle data);

  const SearchSpace& space() const { return space_; }
  WeightStore& store() { return store_; }
  const EvaluatorConfig& config() const { return cfg_; }
  const DatasetBundle& data() const { return data_; }
  const ModelConfig& model_config() const { return model_cfg_; }

  /// Drop objective uses this ANN accuracy when set.
  void set_ann_reference(double ann_acc) { ann_ref_ = ann_acc; }
  std::optional<double> ann_reference() const { return ann_ref_; }

  /// Reference energy (pJ) for the lambda-weighted term; normally the
  /// vanilla SNN's estimate. Ignored while energy_weight == 0.
  void set_energy_reference(double energy_pj) { energy_ref_ = energy_pj; }
  std::optional<double> energy_reference() const { return energy_ref_; }

  /// Spike-driven inference energy estimate for a measured candidate.
  double candidate_energy_pj(std::int64_t macs, double firing_rate) const;

  /// Build the candidate network (spiking) for an encoding.
  Network build(const EncodingVec& code) const;

  /// Shared-weights evaluation of `codes` as one batch with global
  /// evaluation indices start_idx .. start_idx + codes.size() - 1 (the
  /// search loop's journal indices); up to `workers` fine-tunes run at
  /// once on ThreadPool::global(). One result per code, in order.
  std::vector<CandidateResult> evaluate_shared_batch(
      std::size_t start_idx, const std::vector<EncodingVec>& codes,
      std::int64_t workers = 1);
  /// A batch of one at index evaluations().
  CandidateResult evaluate_shared(const EncodingVec& code);
  CandidateResult evaluate_scratch(const EncodingVec& code);

  /// The fine-tune seed of global evaluation index `idx` (split stream off
  /// `base_seed`).
  static std::uint64_t candidate_seed(std::uint64_t base_seed,
                                      std::size_t idx);

  /// Number of candidate trainings performed so far (cost accounting).
  std::size_t evaluations() const { return evaluations_; }

  /// MACs for one timestep at batch-1 input shape.
  std::int64_t candidate_macs(const EncodingVec& code) const;

 private:
  Shape input_shape() const;
  /// Post-training measurement of a fine-tuned `net`: validation accuracy,
  /// firing rate, MACs, energy and the minimized objective, or the
  /// penalized result when the fit diverged or the metrics are non-finite.
  /// Touches no evaluator state.
  CandidateResult measure(Network& net, const FitResult& fit_result,
                          const EncodingVec& code, const char* regime) const;

  EvaluatorConfig cfg_;
  DatasetBundle data_;
  ModelConfig model_cfg_;  ///< cfg_.model_cfg adjusted to the dataset
  SearchSpace space_;
  WeightStore store_;
  std::optional<double> ann_ref_;
  std::optional<double> energy_ref_;
  std::size_t evaluations_ = 0;
};

}  // namespace snnskip
