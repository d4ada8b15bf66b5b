#include "opt/exhaustive.h"

namespace snnskip {

std::size_t exhaustive_count(
    std::size_t slots,
    const std::function<bool(std::size_t, int)>& value_allowed,
    std::size_t max) {
  std::size_t count = 1;
  for (std::size_t k = 0; k < slots; ++k) {
    std::size_t options = 0;
    for (int v = 0; v <= 2; ++v) {
      if (value_allowed(k, v)) ++options;
    }
    if (options == 0) return 0;
    if (count > max / options) return max;  // saturate
    count *= options;
  }
  return count;
}

SearchTrace run_exhaustive(
    std::size_t slots,
    const std::function<bool(std::size_t, int)>& value_allowed,
    const std::function<double(const EncodingVec&)>& objective,
    const ExhaustiveConfig& cfg) {
  SearchTrace trace;
  EncodingVec code(slots, 0);

  // Start from the smallest admissible value in every slot.
  auto first_allowed = [&](std::size_t k, int from) -> int {
    for (int v = from; v <= 2; ++v) {
      if (value_allowed(k, v)) return v;
    }
    return -1;
  };
  for (std::size_t k = 0; k < slots; ++k) {
    const int v = first_allowed(k, 0);
    if (v < 0) return trace;  // dead slot: empty space
    code[k] = v;
  }

  std::size_t evaluations = 0;
  for (;;) {
    trace.record(Observation{code, objective(code)});
    if (++evaluations >= cfg.max_evaluations) break;
    // Odometer increment over admissible values, last slot fastest.
    std::size_t k = slots;
    bool advanced = false;
    while (k-- > 0) {
      const int next = first_allowed(k, code[k] + 1);
      if (next >= 0) {
        code[k] = next;
        for (std::size_t j = k + 1; j < slots; ++j) {
          code[j] = first_allowed(j, 0);
        }
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // rolled over: done
  }
  return trace;
}

}  // namespace snnskip
