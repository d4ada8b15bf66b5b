#include "tensor/kernel_config.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>

#include "tensor/cpu_features.h"
#include "tensor/simd_ops.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/runtime_env.h"

namespace snnskip {

namespace {

constexpr const char* kFormat = "snnskip-tune-v1";

std::string fmt_float(float v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  return buf;
}

// Everything up to (not including) the crc32 field — the canonical bytes
// the CRC seals. parse re-serializes through this same function, so the
// check is immune to whitespace/field-order edits only if they do not
// change the semantic fields; any change that does flips the CRC.
std::string profile_body(const TuningProfile& p) {
  // An illegal tile index serializes as 0x0, which parse rejects.
  const bool legal_tile =
      p.config.gemm_tile >= 0 && p.config.gemm_tile < simd::kNumGemmTiles;
  const simd::GemmTile tile =
      legal_tile ? simd::kGemmTiles[p.config.gemm_tile] : simd::GemmTile{};
  std::string s = "{\n";
  s += "  \"format\": \"";
  s += kFormat;
  s += "\",\n";
  s += "  \"id\": \"" + p.id + "\",\n";
  s += "  \"cpu_signature\": \"" + p.cpu_signature + "\",\n";
  s += "  \"simd\": \"" + p.simd + "\",\n";
  s += "  \"gemm_mr\": " + std::to_string(tile.mr) + ",\n";
  s += "  \"gemm_nr\": " + std::to_string(tile.nr) + ",\n";
  s += "  \"gemm_kc\": " + std::to_string(p.config.gemm_kc) + ",\n";
  s += "  \"transpose_tile\": " + std::to_string(p.config.transpose_tile) +
       ",\n";
  s += "  \"sparse_threshold\": " + fmt_float(p.config.sparse_threshold) +
       ",\n";
  s += "  \"infer_threshold\": " + fmt_float(p.config.infer_threshold) +
       ",\n";
  s += "  \"shards\": " + std::to_string(p.config.shards);
  return s;
}

// Flat-object field scan. The profile is machine-written JSON with no
// nesting; strings must be escape-free (ids and CPU signatures are).
bool find_raw_field(const std::string& text, const std::string& key,
                    std::string* out, bool* is_string) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  if (pos >= text.size()) return false;
  if (text[pos] == '"') {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) return false;
    *out = text.substr(pos + 1, end - pos - 1);
    if (out->find('\\') != std::string::npos) return false;
    *is_string = true;
    return true;
  }
  std::size_t end = pos;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != '\n') {
    ++end;
  }
  *out = text.substr(pos, end - pos);
  while (!out->empty() &&
         std::isspace(static_cast<unsigned char>(out->back()))) {
    out->pop_back();
  }
  *is_string = false;
  return !out->empty();
}

bool get_string_field(const std::string& text, const std::string& key,
                      std::string* out) {
  bool is_string = false;
  return find_raw_field(text, key, out, &is_string) && is_string;
}

bool get_number_field(const std::string& text, const std::string& key,
                      double* out) {
  std::string raw;
  bool is_string = false;
  if (!find_raw_field(text, key, &raw, &is_string) || is_string) return false;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

std::string serialize_tuning_profile(const TuningProfile& p) {
  const std::string body = profile_body(p);
  const std::uint32_t crc = crc32(body.data(), body.size());
  return body + ",\n  \"crc32\": " + std::to_string(crc) + "\n}\n";
}

bool parse_tuning_profile(const std::string& text, TuningProfile* out,
                          std::string* err) {
  auto fail = [err](const char* why) {
    if (err != nullptr) *err = why;
    return false;
  };
  TuningProfile p;
  std::string format;
  if (!get_string_field(text, "format", &format)) {
    return fail("missing format field");
  }
  if (format != kFormat) return fail("unsupported format version");
  if (!get_string_field(text, "id", &p.id)) return fail("missing id");
  if (!get_string_field(text, "cpu_signature", &p.cpu_signature)) {
    return fail("missing cpu_signature");
  }
  if (!get_string_field(text, "simd", &p.simd)) return fail("missing simd");
  SimdLevel lvl;
  if (p.simd != "auto" && !parse_simd_level(p.simd, &lvl)) {
    return fail("unrecognized simd level");
  }
  double mr = 0, nr = 0, kc = 0, tt = 0, sparse = 0, infer = 0, shards = 0,
         crc = 0;
  if (!get_number_field(text, "gemm_mr", &mr) ||
      !get_number_field(text, "gemm_nr", &nr) ||
      !get_number_field(text, "gemm_kc", &kc) ||
      !get_number_field(text, "transpose_tile", &tt) ||
      !get_number_field(text, "sparse_threshold", &sparse) ||
      !get_number_field(text, "infer_threshold", &infer) ||
      !get_number_field(text, "shards", &shards) ||
      !get_number_field(text, "crc32", &crc)) {
    return fail("missing or malformed field");
  }
  const int tile = simd::gemm_tile_index(static_cast<int>(mr),
                                         static_cast<int>(nr));
  if (tile < 0) return fail("gemm tile outside the legal set");
  p.config.gemm_tile = tile;
  p.config.gemm_kc = static_cast<int>(kc);
  p.config.transpose_tile = static_cast<int>(tt);
  p.config.sparse_threshold = static_cast<float>(sparse);
  p.config.infer_threshold = static_cast<float>(infer);
  p.config.shards = static_cast<int>(shards);
  if (p.config.gemm_kc < 1 || p.config.transpose_tile < 1 ||
      p.config.shards < 1) {
    return fail("non-positive schedule constant");
  }
  if (!(p.config.sparse_threshold >= 0.f && p.config.sparse_threshold <= 1.f) ||
      !(p.config.infer_threshold >= 0.f && p.config.infer_threshold <= 1.f)) {
    return fail("threshold out of range");
  }
  const std::string body = profile_body(p);
  const std::uint32_t expect = crc32(body.data(), body.size());
  if (static_cast<std::uint32_t>(crc) != expect) return fail("CRC mismatch");
  *out = p;
  return true;
}

// ---- Process-wide resolution ----------------------------------------------

namespace {

struct Resolved {
  KernelConfig cfg;
  std::string profile_id = "default";
  std::string simd_hint = "auto";
};

Resolved load_resolved() {
  Resolved r;
  const std::string path = env::get_string("SNNSKIP_TUNE_PROFILE", "");
  if (!path.empty()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      SNNSKIP_LOG(Warn) << "SNNSKIP_TUNE_PROFILE: cannot read '" << path
                        << "'; using default kernel constants";
    } else {
      std::ostringstream ss;
      ss << in.rdbuf();
      TuningProfile p;
      std::string err;
      if (!parse_tuning_profile(ss.str(), &p, &err)) {
        SNNSKIP_LOG(Warn) << "SNNSKIP_TUNE_PROFILE: rejected '" << path
                          << "' (" << err
                          << "); using default kernel constants";
      } else if (p.cpu_signature != cpu_signature()) {
        SNNSKIP_LOG(Warn) << "SNNSKIP_TUNE_PROFILE: '" << path
                          << "' is keyed to a different CPU ("
                          << p.cpu_signature
                          << "); using default kernel constants";
      } else {
        r.cfg = p.config;
        r.profile_id = p.id;
        r.simd_hint = p.simd;
        SNNSKIP_LOG(Info) << "loaded tuning profile '" << p.id << "' from "
                          << path;
      }
    }
  }
  // Explicit environment overrides always beat the profile (get_double
  // keeps the incoming value on unset/unparsable/out-of-range).
  r.cfg.sparse_threshold = static_cast<float>(
      env::get_double("SNNSKIP_SPARSE_THRESHOLD",
                      static_cast<double>(r.cfg.sparse_threshold),
                      /*lo=*/0.0, /*hi=*/1.0));
  r.cfg.infer_threshold = static_cast<float>(env::get_double(
      "SNNSKIP_INFER_THRESHOLD", static_cast<double>(r.cfg.infer_threshold),
      /*lo=*/0.0, /*hi=*/1.0));
  return r;
}

std::atomic<const KernelConfig*> g_cfg{nullptr};
std::string g_profile_id = "default";  // written once under g_load_once
std::string g_simd_hint = "auto";
std::once_flag g_load_once;

// Readers keep plain references to the active config without refcounting,
// so every config ever installed stays alive, and reachable, for the life
// of the process: std::deque never moves its elements, and the deque is
// never destroyed, so a reader running during static destruction is safe
// too. Installs happen a bounded number of times (startup, tests, tuner
// sweeps).
void install(const KernelConfig& c) {
  static std::mutex mu;
  static std::deque<KernelConfig>& installed = *new std::deque<KernelConfig>;
  std::lock_guard<std::mutex> lock(mu);
  installed.push_back(c);
  g_cfg.store(&installed.back(), std::memory_order_release);
}

void ensure_loaded() {
  std::call_once(g_load_once, [] {
    Resolved r = load_resolved();
    g_profile_id = r.profile_id;
    g_simd_hint = r.simd_hint;
    install(r.cfg);
  });
}

}  // namespace

namespace detail {
const std::string& tuned_simd_hint() {
  ensure_loaded();
  return g_simd_hint;
}
}  // namespace detail

const KernelConfig& kernel_config() {
  const KernelConfig* p = g_cfg.load(std::memory_order_acquire);
  if (p != nullptr) return *p;
  ensure_loaded();
  return *g_cfg.load(std::memory_order_acquire);
}

void set_kernel_config(const KernelConfig& cfg) {
  // Resolve first so a later lazy load cannot clobber this explicit set.
  ensure_loaded();
  KernelConfig c = cfg;
  const KernelConfig defaults;
  if (c.gemm_tile < 0 || c.gemm_tile >= simd::kNumGemmTiles) {
    c.gemm_tile = defaults.gemm_tile;
  }
  if (c.gemm_kc < 1) c.gemm_kc = defaults.gemm_kc;
  if (c.transpose_tile < 1) c.transpose_tile = defaults.transpose_tile;
  if (!(c.sparse_threshold >= 0.f && c.sparse_threshold <= 1.f)) {
    c.sparse_threshold = defaults.sparse_threshold;
  }
  if (!(c.infer_threshold >= 0.f && c.infer_threshold <= 1.f)) {
    c.infer_threshold = defaults.infer_threshold;
  }
  if (c.shards < 1) c.shards = defaults.shards;
  install(c);
}

const std::string& kernel_config_profile_id() {
  ensure_loaded();
  return g_profile_id;
}

}  // namespace snnskip
