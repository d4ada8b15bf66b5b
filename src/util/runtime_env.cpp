#include "util/runtime_env.h"

#include <cctype>
#include <cstdlib>

namespace snnskip::env {

std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

bool get_bool(const char* name, bool def) {
  const std::optional<std::string> v = raw(name);
  if (!v.has_value() || v->empty()) return def;
  std::string t;
  t.reserve(v->size());
  for (char c : *v) {
    t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (t == "0" || t == "false" || t == "off" || t == "no") return false;
  return true;
}

std::string get_string(const char* name, const std::string& def) {
  return raw(name).value_or(def);
}

double get_double(const char* name, double def) {
  const std::optional<std::string> v = raw(name);
  if (!v.has_value()) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str()) return def;
  return parsed;
}

double get_double(const char* name, double def, double lo, double hi) {
  const double v = get_double(name, def);
  // Written so that NaN, which fails every comparison, falls back too.
  if (!(v >= lo && v <= hi)) return def;
  return v;
}

std::int64_t get_int(const char* name, std::int64_t def) {
  const std::optional<std::string> v = raw(name);
  if (!v.has_value()) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str()) return def;
  return static_cast<std::int64_t>(parsed);
}

std::int64_t workers(std::int64_t def) {
  const std::int64_t v = get_int("SNNSKIP_WORKERS", 0);
  return v > 0 ? v : def;
}

}  // namespace snnskip::env
