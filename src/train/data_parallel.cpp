#include "train/data_parallel.h"

#include <atomic>
#include <cstring>
#include <future>
#include <stdexcept>
#include <utility>

#include "parallel/thread_pool.h"
#include "telemetry/telemetry.h"
#include "util/runtime_env.h"

namespace snnskip {

namespace {

/// Contiguous sample rows [b, e) of a stacked (N, ...) batch tensor. The
/// storage is row-major, so a row range is one contiguous span.
Tensor slice_batch_rows(const Tensor& x, std::int64_t b, std::int64_t e) {
  const Shape& s = x.shape();
  const std::int64_t per_sample = s[0] > 0 ? x.numel() / s[0] : 0;
  std::vector<std::int64_t> dims = s.dims();
  dims[0] = e - b;
  Tensor out{Shape(std::move(dims))};
  std::memcpy(out.data(), x.data() + b * per_sample,
              static_cast<std::size_t>((e - b) * per_sample) * sizeof(float));
  return out;
}

}  // namespace

std::int64_t DataParallelEngine::resolve_shards(const DataParallelConfig& cfg) {
  // NOTE: the shard count fixes the gradient reduction tree, so different
  // shard counts are different (each internally deterministic) numerical
  // schedules.
  return cfg.shards > 0 ? cfg.shards : kDataParallelDefaultShards;
}

std::int64_t DataParallelEngine::resolve_workers(
    const DataParallelConfig& cfg) {
  return cfg.workers > 0 ? cfg.workers : env::workers(1);
}

std::pair<std::int64_t, std::int64_t> DataParallelEngine::shard_range(
    std::int64_t n, std::int64_t shards, std::int64_t s) {
  // Same ceil-div chunking as parallel_for_range: early shards get `chunk`
  // samples; tail shards past ceil(n / chunk) come out empty and contribute
  // zeros to the reduction.
  const std::int64_t chunk = (n + shards - 1) / shards;
  const std::int64_t b = s * chunk;
  return {std::min(b, n), std::min(b + chunk, n)};
}

DataParallelEngine::DataParallelEngine(Network& primary,
                                       const DataParallelConfig& cfg,
                                       Encoder& enc, std::int64_t timesteps,
                                       LossKind loss)
    : primary_(&primary),
      base_encoder_(&enc),
      timesteps_(timesteps),
      loss_(loss),
      shards_(resolve_shards(cfg)),
      workers_(resolve_workers(cfg)) {
  if (!cfg.replica_factory || shards_ <= 1) return;
  encoders_.reserve(static_cast<std::size_t>(shards_));
  for (std::int64_t s = 0; s < shards_; ++s) {
    std::unique_ptr<Encoder> es =
        enc.clone_shard(static_cast<std::uint64_t>(s));
    if (!es) {  // encoder cannot be sharded -> engine stays disabled
      encoders_.clear();
      return;
    }
    encoders_.push_back(std::move(es));
  }
  replicas_.reserve(static_cast<std::size_t>(shards_));
  const auto prim_params = primary_->parameters();
  const auto prim_buffers = primary_->buffers();
  for (std::int64_t s = 0; s < shards_; ++s) {
    Network rep = cfg.replica_factory();
    const auto rp = rep.parameters();
    const auto rb = rep.buffers();
    bool ok =
        rp.size() == prim_params.size() && rb.size() == prim_buffers.size();
    for (std::size_t i = 0; ok && i < rp.size(); ++i) {
      ok = rp[i]->value.shape() == prim_params[i]->value.shape();
    }
    for (std::size_t i = 0; ok && i < rb.size(); ++i) {
      ok = rb[i].second->shape() == prim_buffers[i].second->shape();
    }
    if (!ok) {
      throw std::runtime_error(
          "DataParallelEngine: replica_factory produced a structurally "
          "different network (parameter/buffer layout mismatch)");
    }
    replicas_.push_back(std::move(rep));
  }
  shard_loss_.assign(static_cast<std::size_t>(shards_), 0.0);
}

void DataParallelEngine::run_shard(std::int64_t s,
                                   std::int64_t effective_shards,
                                   const Batch& batch) {
  SNNSKIP_SPAN("train", "dp.shard");
  const std::int64_t n = batch.size();
  const auto [b, e] = shard_range(n, effective_shards, s);
  const float w =
      static_cast<float>(e - b) / static_cast<float>(n);  // w_s = n_s / N

  Network& rep = replicas_[static_cast<std::size_t>(s)];
  if (b == e) {
    // Ceil-div chunking can leave tail shards empty (e.g. 10 samples over
    // 8 shards -> 5 chunks of 2). An empty shard contributes exact zeros
    // to the tree so the reduction shape stays fixed.
    for (Parameter* p : rep.parameters()) p->zero_grad();
    for (const auto& named : rep.buffers()) named.second->fill(0.f);
    shard_loss_[static_cast<std::size_t>(s)] = 0.0;
    return;
  }
  const auto rp = rep.parameters();
  const auto pp = primary_->parameters();
  for (std::size_t i = 0; i < rp.size(); ++i) {
    rp[i]->value = pp[i]->value;  // deep copy: replica starts at primary
    rp[i]->zero_grad();
  }
  const auto rb = rep.buffers();
  const auto pb = primary_->buffers();
  for (std::size_t i = 0; i < rb.size(); ++i) {
    *rb[i].second = *pb[i].second;
  }

  Batch shard;
  shard.x = slice_batch_rows(batch.x, b, e);
  shard.y.assign(batch.y.begin() + b, batch.y.begin() + e);

  rep.reset_state();
  Encoder& enc = *encoders_[static_cast<std::size_t>(s)];
  enc.reset();
  const Tensor output_sum =
      forward_steps(rep, enc, shard.x, timesteps_, /*train=*/true);
  const StepLoss sl = readout_loss(loss_, output_sum, shard.y, timesteps_);
  backward_steps(rep, sl.grad_per_step, timesteps_);
  rep.reset_state();

  // Scale this shard's contribution BEFORE the tree reduction so the
  // combined result is the whole-batch mean decomposition Σ w_s · grad_s
  // (and the w_s-weighted BN buffer average). Done inside the shard task:
  // it is a pure function of the shard, not of the execution schedule.
  for (Parameter* p : rp) p->grad.mul_(w);
  for (const auto& named : rb) named.second->mul_(w);
  shard_loss_[static_cast<std::size_t>(s)] =
      sl.result.loss * static_cast<double>(w);
}

double DataParallelEngine::train_batch(const Batch& batch, Optimizer& opt,
                                       float grad_clip,
                                       double* grad_norm_out) {
  const std::int64_t n = batch.size();
  const std::int64_t S = std::min<std::int64_t>(shards_, n);
  if (S <= 1) {
    // Single-sample batches have no shard decomposition; run the legacy
    // whole-batch step on the primary with the ORIGINAL encoder stream.
    return snnskip::train_batch(*primary_, *base_encoder_, batch, timesteps_,
                                opt, grad_clip, loss_, grad_norm_out);
  }
  SNNSKIP_SPAN("train", "dp.batch");
  primary_->reset_state();
  opt.zero_grad();
  Telemetry::count("train.timesteps", static_cast<double>(timesteps_));

  // Atomic-counter drain: the decomposition is fixed, only WHICH worker
  // picks up a shard varies — and shard results are combined below in a
  // schedule-independent tree, so the assignment does not matter.
  std::atomic<std::int64_t> next{0};
  auto drain = [&] {
    for (std::int64_t s; (s = next.fetch_add(1)) < S;) {
      run_shard(s, S, batch);
    }
  };
  const std::int64_t concurrency = std::min<std::int64_t>(workers_, S);
  Telemetry::count_max("train.workers", static_cast<double>(concurrency));
  if (concurrency <= 1 || ThreadPool::on_worker_thread()) {
    drain();  // serial execution of the identical sharded computation
  } else {
    std::vector<std::future<void>> helpers;
    helpers.reserve(static_cast<std::size_t>(concurrency - 1));
    for (std::int64_t i = 0; i < concurrency - 1; ++i) {
      helpers.push_back(ThreadPool::global().submit(drain));
    }
    drain();  // the caller participates
    for (auto& h : helpers) h.get();
  }

  // Fixed-shape binary tree reduction (stride doubling). The addition
  // order is a function of S alone, so the floating-point result is
  // identical no matter how many workers ran the shards.
  for (std::int64_t stride = 1; stride < S; stride *= 2) {
    for (std::int64_t s = 0; s + stride < S; s += 2 * stride) {
      const auto pa = replicas_[static_cast<std::size_t>(s)].parameters();
      const auto pbr =
          replicas_[static_cast<std::size_t>(s + stride)].parameters();
      for (std::size_t i = 0; i < pa.size(); ++i) {
        pa[i]->grad.add_(pbr[i]->grad);
      }
      const auto ba = replicas_[static_cast<std::size_t>(s)].buffers();
      const auto bb =
          replicas_[static_cast<std::size_t>(s + stride)].buffers();
      for (std::size_t i = 0; i < ba.size(); ++i) {
        ba[i].second->add_(*bb[i].second);
      }
      shard_loss_[static_cast<std::size_t>(s)] +=
          shard_loss_[static_cast<std::size_t>(s + stride)];
    }
  }

  const auto pp = primary_->parameters();
  const auto rp0 = replicas_[0].parameters();
  for (std::size_t i = 0; i < pp.size(); ++i) {
    pp[i]->grad = rp0[i]->grad;
  }
  const auto pb = primary_->buffers();
  const auto rb0 = replicas_[0].buffers();
  for (std::size_t i = 0; i < pb.size(); ++i) {
    *pb[i].second = *rb0[i].second;
  }

  const double grad_norm = clip_grad_norm(pp, grad_clip);
  if (grad_norm_out != nullptr) *grad_norm_out = grad_norm;
  opt.step();
  return shard_loss_[0];
}

}  // namespace snnskip
