#pragma once
// Shared configuration for the experiment harnesses.
//
// Every experiment binary accepts:
//   --scale S   multiply the default budgets (data sizes, epochs) by S
//   --epochs E  override the training epoch count
//   --seeds N   override the number of repeated runs
//   --width W   override the model width
// Defaults are sized to finish on a single CPU core in tens of seconds per
// binary; --scale 4 and up approaches paper-like budgets on bigger irons.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "data/dataset.h"
#include "tensor/cpu_features.h"
#include "train/trainer.h"
#include "util/cli.h"
#include "util/json_writer.h"

namespace snnskip::benchcfg {

// JSON emission for BENCH_*.json artifacts lives in util/json_writer.h
// (shared with the telemetry trace exporter); binaries that emit rows
// include it and use `snnskip::JsonArrayWriter` directly.

/// Host/dispatch provenance, stamped into every benchmark row: the active
/// SIMD level changes what the numbers mean, so
/// scripts/check_bench_regression.py keys rows on "simd".
inline void provenance_fields(JsonArrayWriter& json) {
  json.field("simd", to_string(active_simd()));
  json.field("cpu", cpu_signature());
}

inline std::size_t scaled(std::size_t base, double scale) {
  const long long v = std::llround(static_cast<double>(base) * scale);
  return static_cast<std::size_t>(std::max(1LL, v));
}

inline SyntheticConfig data_config(const CliArgs& args,
                                   std::uint64_t seed = 42) {
  const double scale = args.get_double("scale", 1.0);
  SyntheticConfig cfg;
  cfg.height = 12;
  cfg.width = 12;
  cfg.timesteps = 6;
  cfg.train_size = scaled(200, scale);
  cfg.val_size = scaled(50, scale);
  cfg.test_size = scaled(50, scale);
  cfg.seed = args.get_u64("data-seed", seed);
  return cfg;
}

inline TrainConfig train_config(const CliArgs& args, std::int64_t epochs) {
  const double scale = args.get_double("scale", 1.0);
  TrainConfig cfg;
  cfg.epochs = args.get_int(
      "epochs", static_cast<int>(scaled(static_cast<std::size_t>(epochs),
                                        std::sqrt(scale))));
  cfg.batch_size = 25;
  cfg.lr = static_cast<float>(
      args.get_double("lr", 0.15));  // tuned for the CPU-scale tasks
  cfg.timesteps = 6;
  cfg.grad_clip = 5.f;
  return cfg;
}

inline int seeds(const CliArgs& args, int def) {
  return args.get_int("seeds", def);
}

inline int width(const CliArgs& args, int def) {
  return args.get_int("width", def);
}

}  // namespace snnskip::benchcfg
