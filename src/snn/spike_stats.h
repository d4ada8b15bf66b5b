#pragma once
// Firing-rate accounting.
//
// The paper reports the "average firing rate": the fraction of neurons that
// emit a spike per timestep, averaged over neurons, timesteps and the
// evaluation set (≈11% for the un-skipped baseline in Fig. 1). Every LIF
// layer can be pointed at a shared recorder; the runner enables recording
// during evaluation only, so training speed is unaffected.
//
// One sparsity definition: "density" is always nonzeros / elements over
// the tensors a layer actually consumed. The LIF firing rate, the input
// density behind the sparse-kernel dispatch (the dispatch.nnz /
// dispatch.elements telemetry counters) and the `firing_rate` argument of
// EnergyModel::snn_energy_pj all use this same ratio, so benchmark output
// and energy numbers are directly comparable.

#include <cstdint>
#include <map>
#include <string>

namespace snnskip {

class FiringRateRecorder {
 public:
  /// Accumulate `spikes` spikes observed across `neurons` neuron-timesteps.
  void record(const std::string& layer, double spikes, double neuron_steps);

  void reset();

  /// Overall firing rate: total spikes / total neuron-timesteps.
  double overall_rate() const;

  /// Per-layer rates, keyed by layer name.
  std::map<std::string, double> per_layer_rates() const;

  double total_spikes() const { return total_spikes_; }
  double total_neuron_steps() const { return total_steps_; }

 private:
  struct Acc {
    double spikes = 0.0;
    double steps = 0.0;
  };
  std::map<std::string, Acc> per_layer_;
  double total_spikes_ = 0.0;
  double total_steps_ = 0.0;
};

}  // namespace snnskip
