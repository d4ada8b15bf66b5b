#include "opt/bayes_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "opt/journal.h"

namespace snnskip {

void SearchTrace::record(Observation obs) {
  const double v = obs.value;
  observations.push_back(std::move(obs));
  const double prev_best = best_so_far.empty()
                               ? std::numeric_limits<double>::infinity()
                               : best_so_far.back();
  if (v < prev_best) {
    best = observations.back().code;
    best_value = v;
    best_so_far.push_back(v);
  } else {
    best_so_far.push_back(prev_best);
  }
}

SearchTrace run_bayes_opt(const BoProblem& problem, const BoConfig& cfg) {
  JournaledRounds rounds(problem, cfg.journal_path, cfg.nonfinite_penalty);
  const SearchTrace& trace = rounds.trace();
  std::unordered_set<std::uint64_t> seen;
  const Rng root(cfg.seed);

  auto sample_unseen = [&](Rng& r) -> EncodingVec {
    // Rejection-sample a point not yet evaluated; give up after a bounded
    // number of tries (tiny spaces can be exhausted).
    for (int tries = 0; tries < 256; ++tries) {
      EncodingVec code = problem.sample(r);
      if (seen.count(encoding_hash(code)) == 0) return code;
    }
    return problem.sample(r);
  };

  // Initial design: pure random. Each step draws from its own split
  // stream so the proposal sequence is independent of how many previous
  // steps were replayed versus evaluated — which also makes the whole
  // design batchable (no proposal depends on an earlier design value).
  {
    std::vector<EncodingVec> design;
    design.reserve(static_cast<std::size_t>(cfg.initial_design));
    for (int i = 0; i < cfg.initial_design; ++i) {
      Rng step_rng = root.split(static_cast<std::uint64_t>(i));
      EncodingVec code = sample_unseen(step_rng);
      // Marked seen immediately so the next design point rejects against
      // it.
      seen.insert(encoding_hash(code));
      design.push_back(std::move(code));
    }
    rounds.evaluate(design);
  }

  for (int round = 0; round < cfg.iterations; ++round) {
    Rng round_rng = root.split(
        static_cast<std::uint64_t>(cfg.initial_design + round));
    const double beta = cfg.beta * std::pow(cfg.beta_decay, round);

    // Fit the surrogate on everything observed so far.
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    xs.reserve(trace.observations.size());
    for (const auto& obs : trace.observations) {
      xs.push_back(problem.featurize(obs.code));
      ys.push_back(obs.value);
    }

    // Constant-liar batch selection: each picked candidate is hallucinated
    // at the incumbent value so subsequent picks explore elsewhere.
    std::vector<EncodingVec> batch;
    std::unordered_set<std::uint64_t> batch_seen;
    for (int k = 0; k < cfg.batch_k; ++k) {
      GaussianProcess gp = [&] {
        if (cfg.auto_lengthscale) {
          return GaussianProcess::fit_best_lengthscale(
              xs, ys, {0.5, 1.0, 2.0, 4.0, 8.0}, cfg.kernel_variance,
              cfg.noise);
        }
        GaussianProcess fixed(
            std::make_shared<RbfKernel>(cfg.lengthscale, cfg.kernel_variance),
            cfg.noise);
        fixed.fit(xs, ys);
        return fixed;
      }();

      double best_score = -std::numeric_limits<double>::infinity();
      EncodingVec best_code;
      for (int c = 0; c < cfg.candidate_pool; ++c) {
        EncodingVec code = sample_unseen(round_rng);
        if (batch_seen.count(encoding_hash(code)) != 0) continue;
        const GpPrediction pred = gp.predict(problem.featurize(code));
        const double score =
            acquisition_score(cfg.acquisition, pred, trace.best_value, beta);
        if (score > best_score) {
          best_score = score;
          best_code = std::move(code);
        }
      }
      if (best_code.empty()) break;
      batch_seen.insert(encoding_hash(best_code));
      // Hallucinate the liar observation for the next in-batch pick.
      xs.push_back(problem.featurize(best_code));
      ys.push_back(trace.best_value);
      batch.push_back(std::move(best_code));
    }

    // Evaluate the batch for real (the paper trains the k architectures in
    // parallel; evaluation order within the batch does not affect the GP).
    for (const EncodingVec& code : batch) seen.insert(encoding_hash(code));
    rounds.evaluate(batch);
  }
  return rounds.take_trace();
}

}  // namespace snnskip
