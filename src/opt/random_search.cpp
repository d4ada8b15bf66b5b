#include "opt/random_search.h"

#include <algorithm>
#include <unordered_set>

#include "opt/journal.h"

namespace snnskip {

SearchTrace run_random_search(const BoProblem& problem, const RsConfig& cfg) {
  JournaledRounds rounds(problem, cfg.journal_path, cfg.nonfinite_penalty);
  std::unordered_set<std::uint64_t> seen;
  const Rng root(cfg.seed);

  // Proposal for global evaluation index i — its own split stream plus
  // rejection against `seen`, so the code sequence is identical whether
  // evaluations run one at a time or batch_k at a time.
  auto propose = [&](int i) -> EncodingVec {
    Rng rng = root.split(static_cast<std::uint64_t>(i));
    EncodingVec code;
    for (int tries = 0; tries < 256; ++tries) {
      code = problem.sample(rng);
      if (seen.count(encoding_hash(code)) == 0) break;
    }
    seen.insert(encoding_hash(code));
    return code;
  };

  const int batch_k = std::max(1, cfg.batch_k);
  for (int i = 0; i < cfg.evaluations; i += batch_k) {
    const int k = std::min(batch_k, cfg.evaluations - i);
    std::vector<EncodingVec> codes;
    codes.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) codes.push_back(propose(i + j));
    rounds.evaluate(codes);
  }
  return rounds.take_trace();
}

}  // namespace snnskip
