#include "infer/quant.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "infer/engine.h"

namespace snnskip::infer {

namespace {

bool is_weight_op(OpKind k) {
  return k == OpKind::Conv || k == OpKind::DwConv || k == OpKind::Linear;
}

}  // namespace

float QuantProfile::amax_for(const std::string& name, float fallback) const {
  for (const auto& [n, v] : op_amax) {
    if (n == name) return v;
  }
  return fallback;
}

QuantProfile calibrate_quant(
    const PlanPtr& fp32_plan,
    const std::vector<std::vector<Tensor>>& sequences) {
  if (fp32_plan->precision != Precision::Fp32) {
    throw std::invalid_argument(
        "infer::calibrate_quant: calibration sweeps run on the FP32 plan "
        "(the int8 plan is compiled FROM the resulting profile)");
  }
  // Force dense dispatch everywhere: a zero density threshold means
  // every conv assembles its input (and rematerializes sunk projections)
  // each step — the exact tensors the int8 dense path will quantize.
  ExecOptions o;
  o.threshold = 0.f;
  Engine eng(fp32_plan, o);
  std::vector<float> amax(fp32_plan->ops.size(), 0.f);
  eng.set_calibration_sink(&amax);
  for (const auto& seq : sequences) {
    eng.reset();
    for (const Tensor& x : seq) (void)eng.step(x);
  }

  QuantProfile p;
  p.model = fp32_plan->model_name;
  for (std::size_t i = 0; i < fp32_plan->ops.size(); ++i) {
    const OpPlan& op = fp32_plan->ops[i];
    if (!is_weight_op(op.kind)) continue;
    bool merged = false;
    for (auto& [n, v] : p.op_amax) {
      if (n == op.name) {
        v = std::max(v, amax[i]);
        merged = true;
        break;
      }
    }
    if (!merged) p.op_amax.emplace_back(op.name, amax[i]);
  }
  return p;
}

}  // namespace snnskip::infer
