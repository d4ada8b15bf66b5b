#include "snn/spike_stats.h"

namespace snnskip {

void FiringRateRecorder::record(const std::string& layer, double spikes,
                                double neuron_steps) {
  auto& acc = per_layer_[layer];
  acc.spikes += spikes;
  acc.steps += neuron_steps;
  total_spikes_ += spikes;
  total_steps_ += neuron_steps;
}

void FiringRateRecorder::reset() {
  per_layer_.clear();
  total_spikes_ = 0.0;
  total_steps_ = 0.0;
}

double FiringRateRecorder::overall_rate() const {
  return total_steps_ > 0.0 ? total_spikes_ / total_steps_ : 0.0;
}

std::map<std::string, double> FiringRateRecorder::per_layer_rates() const {
  std::map<std::string, double> out;
  for (const auto& [name, acc] : per_layer_) {
    out[name] = acc.steps > 0.0 ? acc.spikes / acc.steps : 0.0;
  }
  return out;
}

}  // namespace snnskip
