#include "train/trainer.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <optional>

#include "fault/inject.h"
#include "nn/loss.h"
#include "telemetry/telemetry.h"
#include "train/data_parallel.h"

namespace snnskip {

EncodingPlan make_encoding_plan(const Dataset& ds, NeuronMode mode,
                                const TrainConfig& cfg) {
  EncodingPlan plan;
  if (ds.timesteps() > 0) {
    // Event data carries its own time axis regardless of network mode.
    plan.timesteps = ds.timesteps();
    plan.encoder =
        std::make_unique<EventEncoder>(ds.timesteps(), ds.step_channels());
    return plan;
  }
  if (mode == NeuronMode::Analog) {
    plan.timesteps = 1;
    plan.encoder = std::make_unique<DirectEncoder>();
    return plan;
  }
  plan.timesteps = cfg.timesteps;
  switch (cfg.encoding) {
    case EncodingKind::Poisson:
      plan.encoder = std::make_unique<PoissonEncoder>(cfg.seed ^ 0x9042ULL);
      break;
    case EncodingKind::Latency:
      plan.encoder = std::make_unique<LatencyEncoder>(cfg.timesteps);
      break;
    default:
      plan.encoder = std::make_unique<DirectEncoder>();
      break;
  }
  return plan;
}

double clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  double sq = 0.0;
  for (const Parameter* p : params) {
    const float* g = p->grad.data();
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  const double norm = std::sqrt(sq);
  if (max_norm > 0.f && norm > max_norm) {
    const float scale = max_norm / static_cast<float>(norm + 1e-12);
    for (Parameter* p : params) p->grad.mul_(scale);
  }
  return norm;
}

StepLoss readout_loss(LossKind kind, const Tensor& output_sum,
                      const std::vector<std::int64_t>& targets,
                      std::int64_t timesteps) {
  StepLoss sl;
  if (kind == LossKind::CountMse) {
    // Counts = plain sum; dcount/dout_t == 1 at every step.
    sl.result = mse_count_loss(output_sum, targets, timesteps);
    sl.grad_per_step = sl.result.grad_logits;
  } else {
    Tensor mean_logits = output_sum;
    mean_logits.mul_(1.f / static_cast<float>(timesteps));
    sl.result = cross_entropy(mean_logits, targets);
    sl.grad_per_step = sl.result.grad_logits;
    sl.grad_per_step.mul_(1.f / static_cast<float>(timesteps));
  }
  return sl;
}

Tensor forward_steps(Network& net, Encoder& enc, const Tensor& x,
                     std::int64_t timesteps, bool train) {
  Tensor output_sum;
  for (std::int64_t t = 0; t < timesteps; ++t) {
    Tensor out = net.forward(enc.encode(x, t), train);
    if (t == 0) {
      output_sum = std::move(out);
    } else {
      output_sum.add_(out);
    }
  }
  return output_sum;
}

void backward_steps(Network& net, const Tensor& grad_per_step,
                    std::int64_t timesteps) {
  for (std::int64_t t = timesteps; t-- > 0;) {
    (void)net.backward(grad_per_step);
  }
}

double train_batch(Network& net, Encoder& enc, const Batch& batch,
                   std::int64_t timesteps, Optimizer& opt, float grad_clip,
                   LossKind loss_kind, double* grad_norm_out) {
  SNNSKIP_SPAN("train", "batch");
  net.reset_state();
  enc.reset();
  opt.zero_grad();
  Telemetry::count("train.timesteps", static_cast<double>(timesteps));

  Tensor output_sum;
  {
    SNNSKIP_SPAN("train", "batch.forward");
    output_sum = forward_steps(net, enc, batch.x, timesteps, /*train=*/true);
  }

  const StepLoss sl = readout_loss(loss_kind, output_sum, batch.y, timesteps);
  {
    SNNSKIP_SPAN("train", "batch.backward");
    backward_steps(net, sl.grad_per_step, timesteps);
  }
  {
    SNNSKIP_SPAN("train", "batch.step");
    auto params = net.parameters();
    const double grad_norm = clip_grad_norm(params, grad_clip);
    if (grad_norm_out != nullptr) *grad_norm_out = grad_norm;
    opt.step();
  }
  net.reset_state();
  return sl.result.loss;
}

EvalResult evaluate(Network& net, NeuronMode mode, const Dataset& ds,
                    const TrainConfig& cfg, FiringRateRecorder* recorder) {
  SNNSKIP_SPAN("train", "evaluate");
  EncodingPlan plan = make_encoding_plan(ds, mode, cfg);
  if (recorder != nullptr) {
    recorder->reset();
    net.set_recorder(recorder);
  }

  DataLoader loader(ds, cfg.batch_size, /*shuffle=*/false, 0);
  Batch batch;
  loader.start_epoch(0);
  double loss_acc = 0.0;
  std::size_t correct = 0, total = 0, batches = 0;
  while (loader.next(batch)) {
    net.reset_state();
    plan.encoder->reset();
    Telemetry::count("train.timesteps", static_cast<double>(plan.timesteps));
    const Tensor output_sum = forward_steps(net, *plan.encoder, batch.x,
                                            plan.timesteps, /*train=*/false);
    const StepLoss sl =
        readout_loss(cfg.loss, output_sum, batch.y, plan.timesteps);
    loss_acc += sl.result.loss;
    correct += sl.result.correct;
    total += batch.y.size();
    ++batches;
  }
  net.reset_state();

  EvalResult res;
  res.accuracy =
      total ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
  res.loss = batches ? loss_acc / static_cast<double>(batches) : 0.0;
  if (recorder != nullptr) {
    res.firing_rate = recorder->overall_rate();
    net.set_recorder(nullptr);
  }
  return res;
}

FitResult fit(Network& net, NeuronMode mode, DatasetPtr train, DatasetPtr val,
              const TrainConfig& cfg) {
  SNNSKIP_SPAN("train", "fit");
  EncodingPlan plan = make_encoding_plan(*train, mode, cfg);

  // Rebuilt after a health rollback: contaminated momentum/moment buffers
  // would re-poison the restored weights on the very next step.
  auto make_optimizer = [&]() -> std::unique_ptr<Optimizer> {
    auto params = net.parameters();
    if (cfg.opt == OptKind::Adam) {
      return std::make_unique<Adam>(params, cfg.lr, 0.9f, 0.999f, 1e-8f,
                                    cfg.weight_decay);
    }
    return std::make_unique<Sgd>(params, cfg.lr, cfg.momentum,
                                 cfg.weight_decay);
  };
  std::unique_ptr<Optimizer> opt = make_optimizer();

  // Deterministic data-parallel engine: engaged only when the caller
  // supplies a replica factory AND the encoder supports shard streams;
  // otherwise the legacy serial path runs untouched.
  std::optional<DataParallelEngine> dp;
  if (cfg.data_parallel.replica_factory) {
    dp.emplace(net, cfg.data_parallel, *plan.encoder, plan.timesteps,
               cfg.loss);
    if (!dp->enabled()) dp.reset();
  }

  std::optional<HealthMonitor> monitor;
  if (cfg.health.enabled) {
    monitor.emplace(cfg.health);
    monitor->capture(net);
  }

  DataLoader loader(*train, cfg.batch_size, /*shuffle=*/true, cfg.seed);
  FitResult result;
  // Fan-out for the observer hooks.
  auto notify = [&cfg](auto&& fn) {
    for (TrainObserver* obs : cfg.observers) fn(*obs);
  };
  notify([&](TrainObserver& o) { o.on_train_begin(cfg); });

  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    SNNSKIP_SPAN("train", "epoch");
    notify([&](TrainObserver& o) { o.on_epoch_begin(epoch); });
    const double lr_scale = monitor ? monitor->lr_scale() : 1.0;
    opt->set_lr(static_cast<float>(cfg.lr * lr_scale *
                std::pow(cfg.lr_decay, static_cast<float>(epoch))));
    loader.start_epoch(static_cast<std::uint64_t>(epoch));
    Batch batch;
    double loss_acc = 0.0;
    std::size_t batches = 0;
    bool rolled_back = false;
    while (loader.next(batch)) {
      double grad_norm = 0.0;
      const double loss =
          dp ? dp->train_batch(batch, *opt, cfg.grad_clip, &grad_norm)
             : train_batch(net, *plan.encoder, batch, plan.timesteps, *opt,
                           cfg.grad_clip, cfg.loss, &grad_norm);
      if (SNNSKIP_FAULT("train.nan")) {
        // Injected divergence (fault tests): poison one weight the way a
        // blown-up surrogate gradient would.
        auto ps = net.parameters();
        if (!ps.empty() && ps[0]->value.numel() > 0) {
          ps[0]->value.data()[0] = std::numeric_limits<float>::quiet_NaN();
        }
      }
      if (monitor && !monitor->check(net, loss, grad_norm)) {
        if (!monitor->recover(net)) {
          result.diverged = true;
          result.health_retries = monitor->retries();
          notify([&](TrainObserver& o) { o.on_train_end(result); });
          return result;
        }
        opt = make_optimizer();
        rolled_back = true;
        break;
      }
      loss_acc += loss;
      BatchStats bs;
      bs.epoch = epoch;
      bs.batch = static_cast<std::int64_t>(batches);
      bs.batch_size = static_cast<std::int64_t>(batch.y.size());
      bs.loss = loss;
      bs.grad_norm = grad_norm;
      notify([&](TrainObserver& o) { o.on_batch_end(bs); });
      ++batches;
    }
    if (rolled_back) {
      // Redo this epoch from the restored last-good state at half the LR.
      --epoch;
      continue;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = batches ? loss_acc / static_cast<double>(batches) : 0.0;
    if (val) {
      stats.val_acc = evaluate(net, mode, *val, cfg).accuracy;
      result.best_val_acc = std::max(result.best_val_acc, stats.val_acc);
      result.final_val_acc = stats.val_acc;
    }
    notify([&](TrainObserver& o) { o.on_epoch_end(stats); });
    result.epochs.push_back(stats);
    if (monitor) monitor->capture(net);  // this epoch is the new last-good
  }
  if (monitor) result.health_retries = monitor->retries();
  notify([&](TrainObserver& o) { o.on_train_end(result); });
  return result;
}

}  // namespace snnskip
