#include "infer/quant.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "infer/engine.h"
#include "util/crc32.h"

namespace snnskip::infer {

namespace {

bool is_weight_op(OpKind k) {
  return k == OpKind::Conv || k == OpKind::DwConv || k == OpKind::Linear;
}

/// Hexfloat: exact binary round-trip through strtof, locale-independent.
std::string format_amax(float v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
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

std::string serialize_quant_profile(const QuantProfile& p) {
  std::string body = "snnskip-quant-profile-v1\n";
  body += "model " + p.model + "\n";
  for (const auto& [name, v] : p.op_amax) {
    body += "op " + format_amax(v) + " " + name + "\n";
  }
  const std::uint32_t crc = crc32(body.data(), body.size());
  return body + "crc32 " + std::to_string(crc) + "\n";
}

bool parse_quant_profile(const std::string& text, QuantProfile* out,
                         std::string* err) {
  auto bad = [err](const std::string& what) {
    if (err != nullptr) *err = "quant profile: " + what;
    return false;
  };

  // The seal covers everything before the final "crc32 <n>" line.
  const std::size_t crc_pos = text.rfind("crc32 ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return bad("missing crc32 line");
  }
  const std::string crc_line = text.substr(crc_pos);
  char* end = nullptr;
  const unsigned long long stored =
      std::strtoull(crc_line.c_str() + 6, &end, 10);
  if (end == crc_line.c_str() + 6 ||
      (end != nullptr && *end != '\n' && *end != '\0')) {
    return bad("malformed crc32 line");
  }
  const std::string body = text.substr(0, crc_pos);
  if (crc32(body.data(), body.size()) !=
      static_cast<std::uint32_t>(stored)) {
    return bad("checksum mismatch (corrupt or hand-edited profile)");
  }

  QuantProfile p;
  bool saw_magic = false, saw_model = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    const std::string line = body.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != "snnskip-quant-profile-v1") return bad("bad magic line");
      saw_magic = true;
    } else if (line.rfind("model ", 0) == 0) {
      p.model = line.substr(6);
      saw_model = true;
    } else if (line.rfind("op ", 0) == 0) {
      const std::size_t sp = line.find(' ', 3);
      if (sp == std::string::npos) return bad("malformed op line");
      char* vend = nullptr;
      const std::string vtxt = line.substr(3, sp - 3);
      const float v = std::strtof(vtxt.c_str(), &vend);
      if (vend == vtxt.c_str() || *vend != '\0') {
        return bad("malformed op amax value");
      }
      const std::string name = line.substr(sp + 1);
      if (name.empty()) return bad("op line missing name");
      p.op_amax.emplace_back(name, v);
    } else {
      return bad("unknown line '" + line + "'");
    }
  }
  if (!saw_magic) return bad("empty profile");
  if (!saw_model) return bad("missing model line");
  *out = std::move(p);
  return true;
}

}  // namespace snnskip::infer
