#pragma once
// Training driver: surrogate-gradient BPTT for SNNs, plain backprop for the
// ANN twins (which are just the T == 1 special case).
//
// One optimization step over a batch:
//   reset state -> forward T timesteps (accumulating head logits)
//   -> cross-entropy on the time-averaged logits
//   -> backward T timesteps in reverse (each gets dL/dlogits / T)
//   -> clip -> optimizer step.

#include <functional>
#include <memory>
#include <vector>

#include "data/dataloader.h"
#include "graph/network.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "snn/encoders.h"
#include "train/health.h"
#include "train/observer.h"

namespace snnskip {

enum class OptKind { SgdMomentum, Adam };
enum class EncodingKind { Direct, Poisson, Latency, Event };

/// Readout / loss pairing:
///   MeanLogitCE — cross-entropy on time-averaged head logits (default;
///                 head outputs are analog logits);
///   CountMse    — spike-count MSE on summed head outputs (use with
///                 ModelConfig::spiking_head, snnTorch's mse_count_loss).
enum class LossKind { MeanLogitCE, CountMse };

/// Deterministic data-parallel execution (train/data_parallel.h).
///
/// Providing `replica_factory` opts a fit() into the sharded engine: each
/// minibatch is cut into a FIXED number of contiguous shards, every shard
/// runs forward+BPTT on its own model replica, and the per-shard gradients
/// (and batch-norm statistics) are combined with a fixed-shape binary tree
/// reduction. Because the decomposition and the reduction shape depend only
/// on (batch size, shards) — never on `workers` — the resulting gradients,
/// weights, and losses are bit-for-bit identical at 1, 2, 4, or 8 workers
/// (DESIGN.md §5f). `workers` only bounds how many shards run concurrently
/// on ThreadPool::global().
struct DataParallelConfig {
  /// Concurrent shard tasks; 0 reads SNNSKIP_WORKERS (unset => 1 = serial
  /// execution of the same sharded computation).
  std::int64_t workers = 0;
  /// Fixed shard decomposition; 0 selects the default (8, clamped to the
  /// batch size). 1 disables sharding (legacy whole-batch semantics).
  std::int64_t shards = 0;
  /// Builds a structurally identical Network (same architecture, any
  /// init — replicas are re-synced from the primary every batch). Null
  /// disables the engine entirely.
  std::function<Network()> replica_factory;
};

struct TrainConfig {
  std::int64_t epochs = 5;
  std::int64_t batch_size = 16;
  float lr = 0.01f;
  float momentum = 0.9f;
  OptKind opt = OptKind::SgdMomentum;
  float weight_decay = 0.f;
  /// Unroll length for static-image inputs (event data uses its own T).
  std::int64_t timesteps = 8;
  EncodingKind encoding = EncodingKind::Direct;
  LossKind loss = LossKind::MeanLogitCE;
  float grad_clip = 5.f;    ///< global-norm clip; <= 0 disables
  float lr_decay = 1.0f;    ///< multiplicative per-epoch decay
  std::uint64_t seed = 7;

  /// Progress hooks invoked by fit() (train/observer.h). Non-owning; the
  /// observers must outlive the fit() call.
  std::vector<TrainObserver*> observers{};

  /// Numeric health guard (train/health.h). Disabled by default; when
  /// enabled, fit() rolls back to the last-good snapshot on NaN/Inf or
  /// loss explosion, halves the LR, and gives up (FitResult::diverged)
  /// after health.max_retries rollbacks.
  HealthConfig health{};

  /// Deterministic data-parallel engine; inert unless
  /// data_parallel.replica_factory is set (see DataParallelConfig).
  DataParallelConfig data_parallel{};
};

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
  double firing_rate = 0.0;  ///< 0 for analog networks
};

/// Encoder + unroll length appropriate for (dataset, network mode).
struct EncodingPlan {
  std::unique_ptr<Encoder> encoder;
  std::int64_t timesteps = 1;
};
EncodingPlan make_encoding_plan(const Dataset& ds, NeuronMode mode,
                                const TrainConfig& cfg);

/// Train `net` on `train`, tracking validation accuracy per epoch.
/// `val` may be null (no validation tracking).
FitResult fit(Network& net, NeuronMode mode, DatasetPtr train, DatasetPtr val,
              const TrainConfig& cfg);

/// Loss on the T-step accumulated head outputs plus the uniform
/// per-timestep gradient to feed BPTT with. Shared by train_batch, the
/// evaluation loop, and the data-parallel shard tasks.
struct StepLoss {
  LossResult result;
  Tensor grad_per_step;
};
StepLoss readout_loss(LossKind kind, const Tensor& output_sum,
                      const std::vector<std::int64_t>& targets,
                      std::int64_t timesteps);

/// The T-step unroll shared by train_batch, the evaluation loop and the
/// data-parallel shard tasks: encodes step t of `x`, runs the forward and
/// returns the sum of the head outputs over the `timesteps` steps. The
/// caller resets the network and encoder first.
Tensor forward_steps(Network& net, Encoder& enc, const Tensor& x,
                     std::int64_t timesteps, bool train);

/// BPTT over the same unroll: `timesteps` backward calls in reverse step
/// order, each fed the uniform per-step gradient.
void backward_steps(Network& net, const Tensor& grad_per_step,
                    std::int64_t timesteps);

/// One gradient step on a batch; returns the batch loss. Exposed for tests.
/// `grad_norm_out`, when non-null, receives the pre-clip global gradient
/// norm (the health monitor's divergence signal).
double train_batch(Network& net, Encoder& enc, const Batch& batch,
                   std::int64_t timesteps, Optimizer& opt, float grad_clip,
                   LossKind loss = LossKind::MeanLogitCE,
                   double* grad_norm_out = nullptr);

/// Evaluate on a dataset; attaches `recorder` to spiking neurons for the
/// duration when non-null (firing_rate is then populated).
EvalResult evaluate(Network& net, NeuronMode mode, const Dataset& ds,
                    const TrainConfig& cfg,
                    FiringRateRecorder* recorder = nullptr);

/// Global gradient-norm clipping; returns the pre-clip norm.
double clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

}  // namespace snnskip
