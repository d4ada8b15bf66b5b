#pragma once
// Random-search baseline (paper §IV-B): samples adjacency configurations
// without replacement and evaluates each; the paper's comparison trains
// every RS candidate from scratch (the evaluator decides that).
//
// Like BO, each proposal draws from its own split stream, and rounds of
// batch_k codes run through the same journaled loop (JournaledRounds,
// opt/journal.h): a killed baseline run resumes with the identical
// proposals, and with observe_batch set every round's live codes go to it
// in one call, whatever their number.

#include "opt/bayes_opt.h"

namespace snnskip {

struct RsConfig {
  int evaluations = 16;
  /// Candidates proposed and evaluated per round. Proposals are value-
  /// independent (pure split streams), so batching never changes WHICH
  /// codes are evaluated — only how the live codes are grouped into
  /// BoProblem::observe_batch calls when that hook is set.
  int batch_k = 1;
  std::uint64_t seed = 13;
  /// Journal file for crash-safe resume; empty falls back to
  /// $SNNSKIP_JOURNAL, and empty again disables.
  std::string journal_path;
  /// Substitute for a non-finite objective value.
  double nonfinite_penalty = 2.0;
};

SearchTrace run_random_search(const BoProblem& problem, const RsConfig& cfg);

}  // namespace snnskip
