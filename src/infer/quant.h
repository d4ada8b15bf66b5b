#pragma once
// Int8 calibration: activation-range profiles + the calibration pass
// (ISSUE 10).
//
// The int8 plan quantizes each weight op's ASSEMBLED input with one
// scalar step. Ops fed purely by binary spikes need no calibration (the
// step is exactly 1.0); the handful of analog-input ops (the post-GAP
// head linear, convs consuming DSC-pooled averages, ops whose ASC
// projection is rematerialized on dense dispatch) need the input's
// dynamic range. calibrate_quant() measures it: it runs the FP32 plan
// over sample sequences with dense dispatch forced (threshold 0) so every
// op's assembled input — including sunk-projection
// materializations — is actually formed and observable, and records the
// per-op absmax via the engine's calibration sink. The profile lives in
// memory only: serve calibrates each int8 model when it loads it
// (serve/model_registry.cpp), so nothing writes or reads a profile file.

#include <string>
#include <utility>
#include <vector>

#include "infer/plan.h"
#include "tensor/tensor.h"

namespace snnskip::infer {

/// Calibrated per-op input ranges. Entries cover the plan's weight ops
/// (Conv / DwConv / Linear) in op order, keyed by the op's layer name
/// (names repeat across models but are unique within one plan; repeated
/// names within a plan merge by max).
struct QuantProfile {
  std::string model;  ///< plan model_name the sweep ran on (informational)
  std::vector<std::pair<std::string, float>> op_amax;

  /// Absmax for `name`, or `fallback` when the op was not profiled.
  float amax_for(const std::string& name, float fallback) const;
};

/// Run `fp32_plan` (precision must be Fp32; throws otherwise) over the
/// calibration `sequences` — each a [T] list of input tensors at the
/// plan's frozen shape, engine reset between sequences — and return the
/// per-op input absmax profile. Deterministic: same plan + same
/// sequences gives an identical profile on every SIMD level (the fp32
/// dense path is bit-stable across levels by the simd_ops contract).
QuantProfile calibrate_quant(const PlanPtr& fp32_plan,
                             const std::vector<std::vector<Tensor>>& sequences);

}  // namespace snnskip::infer
