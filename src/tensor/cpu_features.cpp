#include "tensor/cpu_features.h"

#include <atomic>
#include <mutex>

#include "util/logging.h"
#include "util/runtime_env.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace snnskip {

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2: return "avx2";
  }
  return "scalar";
}

bool parse_simd_level(const std::string& s, SimdLevel* out) {
  if (s == "scalar") {
    *out = SimdLevel::Scalar;
  } else if (s == "avx2") {
    *out = SimdLevel::Avx2;
  } else {
    return false;
  }
  return true;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

bool cpu_has_fma() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("fma") != 0;
  return has;
#else
  return false;
#endif
}

bool simd_avx2_compiled() {
#if defined(SNNSKIP_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

SimdLevel max_simd_level() {
  return simd_avx2_compiled() && cpu_has_avx2() ? SimdLevel::Avx2
                                                : SimdLevel::Scalar;
}

std::string cpu_signature() {
  std::string brand = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[4] = {0, 0, 0, 0};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char buf[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      for (int r = 0; r < 4; ++r) {
        for (int b = 0; b < 4; ++b) {
          buf[leaf * 16 + r * 4 + b] =
              static_cast<char>((regs[r] >> (8 * b)) & 0xff);
        }
      }
    }
    // Trim leading/trailing whitespace from the padded brand string.
    std::string s(buf);
    const auto first = s.find_first_not_of(" \t");
    const auto last = s.find_last_not_of(" \t");
    if (first != std::string::npos) brand = s.substr(first, last - first + 1);
  }
#endif
  brand += "|avx2=";
  brand += cpu_has_avx2() ? '1' : '0';
  brand += "|fma=";
  brand += cpu_has_fma() ? '1' : '0';
  return brand;
}

namespace {

std::atomic<int> g_active{-1};  // -1 = not resolved yet
std::once_flag g_resolve_once;

void resolve_active() {
  // Policy: an explicit SNNSKIP_SIMD wins, clamped to what this CPU and
  // build support; otherwise auto, the highest supported level.
  const std::string choice = env::get_string("SNNSKIP_SIMD", "");
  SimdLevel level = max_simd_level();
  if (parse_simd_level(choice, &level)) {
    const SimdLevel max = max_simd_level();
    if (static_cast<int>(level) > static_cast<int>(max)) {
      SNNSKIP_LOG(Warn) << "SNNSKIP_SIMD: requested '" << to_string(level)
                        << "' but this "
                        << (simd_avx2_compiled() ? "CPU" : "build")
                        << " supports at most '" << to_string(max)
                        << "'; falling back";
      level = max;
    }
  } else if (!choice.empty() && choice != "auto") {
    SNNSKIP_LOG(Warn) << "SNNSKIP_SIMD: unrecognized value '" << choice
                      << "'; using auto";
  }
  g_active.store(static_cast<int>(level), std::memory_order_release);
}

}  // namespace

SimdLevel active_simd() {
  const int v = g_active.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<SimdLevel>(v);
  std::call_once(g_resolve_once, resolve_active);
  return static_cast<SimdLevel>(g_active.load(std::memory_order_acquire));
}

SimdLevel set_active_simd(SimdLevel level) {
  const SimdLevel max = max_simd_level();
  if (static_cast<int>(level) > static_cast<int>(max)) level = max;
  g_active.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

}  // namespace snnskip
