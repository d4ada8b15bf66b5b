#pragma once
// A CandidateEvaluator bound to a worker count, for the search loops
// ("parallel BO", paper §III-B): each BO round's k candidates fine-tune up
// to `workers` at a time on ThreadPool::global().
//
// The batch semantics and the determinism contract are those of
// CandidateEvaluator::evaluate_shared_batch (core/evaluator.h): every
// candidate starts from the store at batch entry, fine-tunes with a seed
// derived from its global evaluation index, and healthy candidates merge
// back in index order. The worker count only changes how many fine-tunes
// run concurrently, so 1, 2, 4 or 8 workers give bitwise-identical
// results and stores.

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "util/runtime_env.h"

namespace snnskip {

struct ParallelEvalConfig {
  /// Concurrent candidate fine-tunes; 0 reads SNNSKIP_WORKERS (unset => 1).
  std::int64_t workers = 0;
};

class ParallelCandidateEvaluator {
 public:
  /// Borrows `base` (must outlive the parallel evaluator); all weights,
  /// references, and cost accounting stay in the base evaluator.
  explicit ParallelCandidateEvaluator(CandidateEvaluator& base,
                                      ParallelEvalConfig cfg = {})
      : base_(&base),
        workers_(cfg.workers > 0 ? cfg.workers : env::workers(1)) {}

  std::int64_t workers() const { return workers_; }

  /// CandidateEvaluator::evaluate_shared_batch at this worker count.
  std::vector<CandidateResult> evaluate_shared_batch(
      std::size_t start_idx, const std::vector<EncodingVec>& codes) {
    return base_->evaluate_shared_batch(start_idx, codes, workers_);
  }

 private:
  CandidateEvaluator* base_;
  std::int64_t workers_;
};

}  // namespace snnskip
