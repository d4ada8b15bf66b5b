#pragma once
// Bayesian optimization over discrete adjacency encodings (paper §III-B).
//
// Loop: fit GP on all observations -> score a random candidate pool with
// the acquisition -> take the top-k batch ("parallel BO": the paper's
// strategy proposes k architectures per iteration, hallucinating pending
// results with the constant-liar value so batch members diversify) ->
// evaluate the batch -> append observations. Evaluated points are never
// re-proposed.
//
// Fault tolerance: proposal randomness is reseeded per step from split
// streams of the config seed, so the trajectory is a pure function of
// (config, observation values). Combined with the append-only journal
// (opt/journal.h) this makes a killed search resumable: on restart the
// journaled values replace the first N objective calls, the proposals are
// recomputed identically, and evaluation N continues live. Candidates
// whose evaluation failed report a finite penalized objective (observe /
// the journaled loop's non-finite guard), so the GP never ingests NaN.

#include <functional>
#include <string>
#include <vector>

#include "opt/acquisition.h"
#include "opt/encoding.h"
#include "util/rng.h"

namespace snnskip {

struct Observation {
  EncodingVec code;
  double value = 0.0;
  bool failed = false;  ///< penalized (diverged / non-finite), not measured
};

/// The problem is abstract: how to sample a random point, featurize it for
/// the GP, and (expensively) evaluate it. The optimizer MINIMIZES.
struct BoProblem {
  std::function<EncodingVec(Rng&)> sample;
  std::function<std::vector<double>(const EncodingVec&)> featurize;
  std::function<double(const EncodingVec&)> objective;
  /// Optional richer evaluation carrying the failed flag (code is filled
  /// in by the optimizer). When set it is used instead of `objective`.
  std::function<Observation(const EncodingVec&)> observe;
  /// Optional batched evaluation (shared-weights candidate training, see
  /// core/evaluator.h): evaluate all codes, return one Observation per
  /// code in order. `start_idx` is the global evaluation index of codes[0]
  /// — the journal index the search loop will record, which batched
  /// evaluators use to derive replay-stable per-candidate seeds. When set,
  /// run_bayes_opt and run_random_search send every round's live
  /// (non-replayed) suffix to it, even a suffix of one code, and never
  /// call observe/objective.
  std::function<std::vector<Observation>(std::size_t start_idx,
                                         const std::vector<EncodingVec>&)>
      observe_batch;
};

struct BoConfig {
  int iterations = 8;       ///< BO rounds after the initial design
  int batch_k = 2;          ///< candidates proposed per round (parallel BO)
  int initial_design = 4;   ///< random points before the GP takes over
  int candidate_pool = 128; ///< pool scored by the acquisition per pick
  AcquisitionKind acquisition = AcquisitionKind::Ucb;
  double beta = 2.0;        ///< UCB exploration weight
  double beta_decay = 0.95; ///< per-round multiplicative decay
  double lengthscale = 2.0;
  double kernel_variance = 1.0;
  double noise = 1e-4;
  /// Select the lengthscale per round by log-marginal-likelihood over a
  /// small grid instead of using the fixed value above.
  bool auto_lengthscale = false;
  std::uint64_t seed = 11;

  /// Journal file for crash-safe resume; every evaluation is appended and
  /// flushed, and existing rows are replayed before evaluating live.
  /// Empty falls back to $SNNSKIP_JOURNAL, and empty again disables.
  std::string journal_path;
  /// Substitute for a non-finite objective value (guard of last resort —
  /// the evaluator already penalizes failed candidates upstream).
  double nonfinite_penalty = 2.0;
};

struct SearchTrace {
  std::vector<Observation> observations;   ///< in evaluation order
  std::vector<double> best_so_far;         ///< running minimum per evaluation
  EncodingVec best;
  double best_value = 0.0;
  std::size_t replayed = 0;  ///< evaluations satisfied from the journal

  /// Append one evaluation and extend the running minimum; the one copy
  /// of this bookkeeping that every search strategy uses.
  void record(Observation obs);
};

SearchTrace run_bayes_opt(const BoProblem& problem, const BoConfig& cfg);

}  // namespace snnskip
