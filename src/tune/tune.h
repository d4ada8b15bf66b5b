#pragma once
// GP-driven kernel autotuner (ISSUE 9).
//
// The runtime kernels expose a handful of discrete schedule constants —
// SIMD level, GEMM register tile and K-panel, transpose tile edge, the
// sparse and inference dispatch thresholds, the data-parallel shard count
// (tensor/kernel_config.h). Their best values are machine properties, not
// code properties, so snnskip-tune measures them HERE and persists a
// per-machine TuningProfile keyed to cpu_signature().
//
// Search: the same Gaussian-process + expected-improvement machinery the
// architecture search uses (src/opt), applied per kernel family over a
// tiny discrete space. Each family evaluates its DEFAULT point first and
// keeps the argmin over everything measured, so a committed profile can
// never be slower than the defaults on the workloads it was tuned on
// (never-slower by construction; scripts/check_bench_regression.py
// enforces it end-to-end on the committed benchmarks). Families are tuned
// in sequence and each winner is installed before the next family runs —
// greedy coordinate descent over the joint space.
//
// Every completed measurement is journaled with opt/journal.h exactly like
// a BO run: a killed snnskip-tune resumes from the journal, replaying
// measured points instead of re-timing them.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "opt/encoding.h"
#include "tensor/kernel_config.h"

namespace snnskip::tune {

/// One discrete knob: a named list of integer-coded choices (a tile index,
/// a K-panel length, a threshold in percent, ...).
struct Axis {
  std::string name;
  std::vector<int> choices;
};

/// The cartesian product of a family's axes. A code holds one choice index
/// (not raw value) per axis, in axis order.
struct Space {
  std::vector<Axis> axes;

  std::int64_t size() const;
  bool valid(const EncodingVec& code) const;
  /// Per-axis position normalized to [0, 1] — the GP feature vector.
  std::vector<double> features(const EncodingVec& code) const;
  /// Decode a flat enumeration index (row-major over axes) into a code.
  EncodingVec from_flat(std::int64_t flat) const;
  /// Raw choice value of axis `a` under `code`.
  int value(const EncodingVec& code, std::size_t a) const;
};

/// A measurable kernel family.
struct Family {
  std::string name;
  Space space;
  EncodingVec default_code;
  /// Install the candidate's schedule constants process-wide (kernel
  /// config + SIMD level) so `measure` times them.
  std::function<void(const EncodingVec&)> apply;
  /// Seconds per workload repetition under the installed candidate
  /// (smaller = better). Measured through telemetry span timers.
  std::function<double()> measure;
  /// Write this family's winning choices into the profile under assembly.
  std::function<void(const EncodingVec&, TuningProfile*)> commit;
};

struct TuneOptions {
  int budget = 24;               ///< max measured points per family
  double min_ms = 20.0;          ///< per-measurement wall-clock floor
  std::uint64_t seed = 1;        ///< reserved for randomized workloads
  std::string journal_prefix;    ///< "<prefix>_<family>.jsonl"; "" = off
  bool smoke = false;            ///< tiny workloads (CI smoke)
};

struct FamilyResult {
  std::string family;
  EncodingVec best_code;
  double best_seconds = 0.0;
  double default_seconds = 0.0;
  int evaluated = 0;   ///< measured live this run
  int replayed = 0;    ///< replayed from the journal
};

/// Tune one family: default point first, then GP+EI over the remaining
/// space until `budget` points are measured or the space is exhausted.
/// Leaves the family's best point applied.
FamilyResult tune_family(Family& fam, const TuneOptions& opts);

/// The standard families in tuning order: "simd" (composite workload),
/// "gemm" (tile x K-panel), "transpose" (tile edge), "sparse" (dispatch
/// threshold vs a density sweep), "infer" (engine dispatch threshold),
/// "shards" (data-parallel shard count).
std::vector<Family> build_families(const TuneOptions& opts);

/// Telemetry-span-timed measurement: repeats `body` until `min_ms` of
/// wall clock, recording one "tune"/`key` span per rep, and returns mean
/// seconds per rep from the span aggregate. Requires telemetry enabled
/// (tune_family enables it).
double measure_span_seconds(const char* key, double min_ms,
                            const std::function<void()>& body);

/// Fold each family's winning choices into one profile (id + this
/// machine's cpu_signature(), then every commit() in order).
TuningProfile assemble_profile(const std::vector<Family>& fams,
                               const std::vector<FamilyResult>& results,
                               const std::string& id);

/// Serialize + CRC the profile, replace `path` with it via atomic_write
/// (util/atomic_file.h), then re-read and re-parse the final bytes (a
/// profile that would be rejected at load time must never be committed).
bool write_profile(const TuningProfile& p, const std::string& path,
                   std::string* err);

}  // namespace snnskip::tune
