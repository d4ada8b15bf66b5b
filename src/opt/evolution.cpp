#include "opt/evolution.h"

#include <deque>

namespace snnskip {

SearchTrace run_evolution(
    const BoProblem& problem,
    const std::function<EncodingVec(const EncodingVec&, Rng&)>& mutate,
    const EvolutionConfig& cfg) {
  Rng rng(cfg.seed);
  SearchTrace trace;
  std::deque<Observation> population;  // front = oldest

  // Seed the population randomly.
  const int seed_count = std::min(cfg.population, cfg.evaluations);
  for (int i = 0; i < seed_count; ++i) {
    EncodingVec code = problem.sample(rng);
    const double value = problem.objective(code);
    trace.record(Observation{code, value});
    population.push_back(Observation{std::move(code), value});
  }

  // Evolve: tournament-select, mutate, evaluate, age out the oldest.
  for (int e = seed_count; e < cfg.evaluations; ++e) {
    const Observation* parent = nullptr;
    for (int t = 0; t < cfg.tournament; ++t) {
      const auto& cand = population[static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(population.size())))];
      if (parent == nullptr || cand.value < parent->value) parent = &cand;
    }
    EncodingVec child = mutate(parent->code, rng);
    const double value = problem.objective(child);
    trace.record(Observation{child, value});
    population.push_back(Observation{std::move(child), value});
    if (static_cast<int>(population.size()) > cfg.population) {
      population.pop_front();
    }
  }
  return trace;
}

}  // namespace snnskip
