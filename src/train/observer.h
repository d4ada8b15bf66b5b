#pragma once
// Structured training-progress observation (ISSUE 2 API redesign).
//
// The trainer used to expose exactly one progress surface: a `verbose`
// bool that printed to stderr. TrainObserver replaces it with hooks the
// fit() loop invokes at well-defined points, in this order:
//
//   on_train_begin(cfg)
//   for each epoch:  on_epoch_begin(e)
//                    on_batch_end(BatchStats) x num_batches
//                    on_epoch_end(EpochStats)
//   on_train_end(FitResult)
//
// Observers are non-owning raw pointers in TrainConfig::observers and must
// outlive the fit() call. Two stock implementations ship here:
// ProgressPrinter (the old stderr lines, byte-identical format) and
// TelemetryObserver (epoch/batch counters + instant trace markers for
// telemetry/telemetry.h).

#include <cstdint>
#include <vector>

namespace snnskip {

struct TrainConfig;  // train/trainer.h

/// Per-epoch aggregates; the vector of these is the fit() history.
struct EpochStats {
  std::int64_t epoch = 0;
  double train_loss = 0.0;
  double train_acc = 0.0;
  double val_acc = 0.0;
};

struct FitResult {
  std::vector<EpochStats> epochs;
  double best_val_acc = 0.0;
  double final_val_acc = 0.0;
  /// True when the health monitor exhausted its rollback budget and the
  /// fit stopped early (train/health.h); the result is then untrusted.
  bool diverged = false;
  /// Rollbacks the health monitor performed during this fit.
  int health_retries = 0;
};

/// Per-batch progress payload for on_batch_end.
struct BatchStats {
  std::int64_t epoch = 0;
  std::int64_t batch = 0;       ///< index within the epoch
  std::int64_t batch_size = 0;  ///< samples in this batch
  double loss = 0.0;            ///< this batch's training loss
  double grad_norm = 0.0;       ///< pre-clip global gradient norm
};

class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  virtual void on_train_begin(const TrainConfig& cfg) { (void)cfg; }
  virtual void on_epoch_begin(std::int64_t epoch) { (void)epoch; }
  virtual void on_batch_end(const BatchStats& stats) { (void)stats; }
  virtual void on_epoch_end(const EpochStats& stats) { (void)stats; }
  virtual void on_train_end(const FitResult& result) { (void)result; }
};

/// The historical `verbose` output: one stderr log line per epoch.
class ProgressPrinter final : public TrainObserver {
 public:
  void on_epoch_end(const EpochStats& stats) override;
};

/// Bridges training progress into the telemetry subsystem: monotonic
/// counters (train.epochs, train.batches, train.samples), an arena
/// high-water counter, and an instant trace marker per epoch boundary.
/// All hooks are no-ops while telemetry is disabled.
class TelemetryObserver final : public TrainObserver {
 public:
  void on_epoch_begin(std::int64_t epoch) override;
  void on_batch_end(const BatchStats& stats) override;
  void on_epoch_end(const EpochStats& stats) override;
};

}  // namespace snnskip
