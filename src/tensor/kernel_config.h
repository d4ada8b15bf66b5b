#pragma once
// Tunable kernel schedule constants + the per-machine tuning profile
// (ISSUE 9).
//
// The hot kernels used to run on hand-picked magic numbers (sparse
// threshold 0.25, 4x16 GEMM tile, K panel 128, 32x32 transpose tile,
// 8 shards) baked in at the use sites. They now live in one KernelConfig
// consulted by the dispatch layer, resolved once on first use:
//
//   defaults  <-  tuning profile (SNNSKIP_TUNE_PROFILE=path.json)
//             <-  environment overrides (SNNSKIP_SPARSE_THRESHOLD,
//                 SNNSKIP_INFER_THRESHOLD — an explicit env var always
//                 beats the profile)
//
// A tuning profile is the JSON artifact snnskip-tune writes: versioned
// ("snnskip-tune-v1"), keyed by the machine's cpu_signature(), and sealed
// with a CRC32 over the canonical serialization of the semantic fields.
// A profile that fails to parse, fails the CRC (torn write, bit rot), or
// names a different CPU is REJECTED with a warning and the defaults stand
// — a corrupt profile can cost performance, never correctness.
//
// Bitwise-determinism note: every knob here either preserves per-output-
// element accumulation order (gemm_kc only moves the K-panel boundaries,
// the per-element product sequence is unchanged; transpose_tile reorders
// exact copies) or is a dispatch policy whose chosen kernel is itself
// bit-exact against the alternative (sparse/infer thresholds pick between
// paths that agree bit-for-bit; shards only applies where the fixed-shard
// contract already guarantees shard-count invariance). Changing gemm_tile
// regroups which output elements share the all-zero spike-skip test; the
// skip is an exact no-op for +0 accumulators (DESIGN.md §5e), so results
// are unchanged on the training paths, which start all accumulators at +0.

#include <string>

namespace snnskip {

struct KernelConfig {
  /// Index into kGemmTiles (simd_ops.h): the (Mr, Nr) register tile the
  /// GEMM drivers block on. Index 0 is the historic 4x16.
  int gemm_tile = 0;
  /// GEMM K-panel (cache block) length.
  int gemm_kc = 128;
  /// Cache-blocked transpose tile edge.
  int transpose_tile = 32;
  /// Density cutoff for the training-graph sparse dispatch (SparseExec);
  /// 0 selects the dense path everywhere.
  float sparse_threshold = 0.25f;
  /// Density cutoff for the inference engine dispatch (ExecOptions
  /// default).
  float infer_threshold = 0.25f;
  /// Default shard count for deterministic data-parallel training (used
  /// only when DataParallelConfig.shards == 0).
  int shards = 8;
};

/// The process-wide resolved configuration (defaults <- profile <- env).
/// Cheap: one atomic load after first resolution.
const KernelConfig& kernel_config();

/// Replace the active configuration (tests, autotuner measurement loops).
/// Invalid fields are clamped to the defaults. Takes effect on the next
/// kernel call; does not re-read the environment or profile.
void set_kernel_config(const KernelConfig& cfg);

/// Identity of the loaded tuning profile for bench provenance:
/// "default" when none was loaded (or it was rejected), else the
/// profile's "id" field. check_bench_regression.py refuses to compare
/// rows across different profile ids.
const std::string& kernel_config_profile_id();

// ---- Tuning profile serialization ----------------------------------------

/// What snnskip-tune persists. `simd` is "auto"/"scalar"/"avx2"/"avx2fma";
/// `id` is a short human-readable label recorded into bench rows.
struct TuningProfile {
  std::string id = "tuned";
  std::string cpu_signature;
  std::string simd = "auto";
  KernelConfig config;
};

/// Canonical JSON for the profile, CRC32-sealed. parse_tuning_profile
/// re-serializes the parsed fields and checks the CRC against the stored
/// one, so any torn/edited byte that survives parsing still fails closed.
std::string serialize_tuning_profile(const TuningProfile& p);

/// Parse + validate (format version, required keys, legal tile, CRC).
/// Returns false with a reason in *err; does NOT check cpu_signature —
/// that policy belongs to the loader (and to tests).
bool parse_tuning_profile(const std::string& text, TuningProfile* out,
                          std::string* err);

}  // namespace snnskip
