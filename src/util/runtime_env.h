#pragma once
// Single entry point for SNNSKIP_* environment variables.
//
// Runtime toggles used to be scattered getenv calls (logging, sparse
// dispatch, ...), each with its own ad-hoc parsing. All reads now go
// through these typed getters so the set of recognized variables lives in
// one place (documented in README "Runtime environment variables") and
// tests can rely on uniform parsing:
//
//   bools   "0" / "false" / "off" / "no" (case-insensitive) -> false,
//           any other non-empty value -> true
//   numbers strtod/strtoll; unparsable or out-of-range -> default
//
// This header is the ONLY place allowed to call std::getenv (enforced by
// the telemetry PR's acceptance check: no getenv outside runtime_env.cpp).

#include <cstdint>
#include <optional>
#include <string>

namespace snnskip::env {

/// Raw variable lookup; nullopt when unset.
std::optional<std::string> raw(const char* name);

bool get_bool(const char* name, bool def);
std::string get_string(const char* name, const std::string& def);

/// Numeric getters fall back to `def` on unset or unparsable values; when
/// [lo, hi] is given, out-of-range values and NaN also fall back (never
/// clamp — a typo'd threshold should not silently become a different
/// policy).
double get_double(const char* name, double def);
double get_double(const char* name, double def, double lo, double hi);
std::int64_t get_int(const char* name, std::int64_t def);

/// SNNSKIP_WORKERS: data-parallel worker count for the training engine and
/// the parallel candidate evaluator. Unset / 0 / negative falls back to
/// `def` (callers pass 1 for "serial unless asked"). The worker count only
/// changes how many shard/candidate tasks run concurrently — never the
/// numeric result (DESIGN.md §5f).
std::int64_t workers(std::int64_t def);

}  // namespace snnskip::env
