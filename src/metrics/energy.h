#pragma once
// Energy proxy model.
//
// Standard accounting used across the SNN literature (45 nm CMOS numbers,
// Horowitz ISSCC'14): a 32-bit MAC costs ~4.6 pJ, a 32-bit accumulate
// ~0.9 pJ. An ANN spends one MAC per weight per inference; an SNN spends
// one ACCUMULATE per weight per *incoming spike*, so its cost scales with
// firing rate x timesteps. This quantifies the paper's efficiency argument
// (DSC adds MACs; ASC raises firing rates).

#include <cstdint>

namespace snnskip {

struct EnergyModel {
  double mac_pj = 4.6;  ///< energy per multiply-accumulate (ANN)
  double ac_pj = 0.9;   ///< energy per accumulate (SNN, spike-driven)

  /// ANN inference energy (picojoules) for `macs` multiply-accumulates.
  double ann_energy_pj(std::int64_t macs) const;

  /// SNN inference energy: macs/step * rate * T accumulates.
  /// `firing_rate` is nonzeros / elements — the same sparsity definition
  /// as FiringRateRecorder and the dispatch.nnz / dispatch.elements
  /// telemetry counters, so measured densities can be plugged in directly.
  double snn_energy_pj(std::int64_t macs_per_step, double firing_rate,
                       std::int64_t timesteps) const;
};

}  // namespace snnskip
