#include "core/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>

#include "graph/mac_counter.h"
#include "parallel/thread_pool.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"
#include "util/rng.h"

namespace snnskip {

namespace {

ModelConfig adjust_model_config(ModelConfig cfg, const DatasetBundle& data,
                                const TrainConfig& train_cfg) {
  cfg.in_channels = data.train->step_channels();
  cfg.num_classes = data.train->num_classes();
  const std::int64_t t = data.train->timesteps() > 0 ? data.train->timesteps()
                                                     : train_cfg.timesteps;
  cfg.max_timesteps = t;
  return cfg;
}

EvaluatorConfig guard_config(EvaluatorConfig cfg) {
  // A diverged candidate must fail a bounded retry loop, not crash the
  // search; opt in both training budgets unless the caller configured
  // health explicitly.
  if (cfg.guard_candidates) {
    HealthConfig guarded = default_health_config();
    guarded.enabled = true;
    if (!cfg.finetune.health.enabled) cfg.finetune.health = guarded;
    if (!cfg.scratch.health.enabled) cfg.scratch.health = guarded;
  }
  return cfg;
}

}  // namespace

CandidateEvaluator::CandidateEvaluator(EvaluatorConfig cfg, DatasetBundle data)
    : cfg_(guard_config(std::move(cfg))),
      data_(std::move(data)),
      model_cfg_(adjust_model_config(cfg_.model_cfg, data_, cfg_.finetune)),
      space_(model_block_specs(cfg_.model, model_cfg_),
             cfg_.include_recurrent),
      store_(cfg_.seed) {}

Shape CandidateEvaluator::input_shape() const {
  const Shape s = data_.train->sample_shape();
  // Event samples are (T*C, H, W); per-step input is (1, C, H, W).
  return Shape{1, data_.train->step_channels(), s[s.ndim() - 2],
               s[s.ndim() - 1]};
}

Network CandidateEvaluator::build(const EncodingVec& code) const {
  ModelConfig cfg = model_cfg_;
  cfg.mode = NeuronMode::Spiking;
  return build_model(cfg_.model, cfg, space_.decode(code));
}

std::int64_t CandidateEvaluator::candidate_macs(
    const EncodingVec& code) const {
  const Network net = build(code);
  return count_macs(net, input_shape()).total;
}

double CandidateEvaluator::candidate_energy_pj(std::int64_t macs,
                                               double firing_rate) const {
  return cfg_.energy_model.snn_energy_pj(macs, firing_rate,
                                         model_cfg_.max_timesteps);
}

std::uint64_t CandidateEvaluator::candidate_seed(std::uint64_t base_seed,
                                                std::size_t idx) {
  // Same derivation style as Encoder::clone_shard: a splitmix step off a
  // golden-ratio-spread state is a pure function of (base_seed, idx) and
  // decorrelates nearby indices.
  std::uint64_t state =
      base_seed ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(idx) + 1));
  return splitmix64(state);
}

CandidateResult CandidateEvaluator::measure(Network& net, const FitResult& fr,
                                            const EncodingVec& code,
                                            const char* regime) const {
  if (!fr.diverged) {
    CandidateResult res;
    FiringRateRecorder recorder;
    const EvalResult val = evaluate(net, NeuronMode::Spiking, *data_.val,
                                    cfg_.finetune, &recorder);
    res.val_accuracy = val.accuracy;
    res.firing_rate = val.firing_rate;
    res.macs = candidate_macs(code);
    res.energy_pj = candidate_energy_pj(res.macs, res.firing_rate);
    res.objective = ann_ref_ ? (*ann_ref_ - val.accuracy) : -val.accuracy;
    if (cfg_.energy_weight > 0.0) {
      // Scalarized accuracy/energy trade-off; normalized so lambda has the
      // same meaning across models ("1.0 == one reference-energy unit
      // costs one full accuracy point of budget").
      const double ref = energy_ref_.value_or(res.energy_pj);
      if (ref > 0.0) {
        res.objective += cfg_.energy_weight * res.energy_pj / ref;
      }
    }
    res.health_retries = fr.health_retries;
    if (std::isfinite(res.objective) && std::isfinite(res.val_accuracy)) {
      SNNSKIP_LOG(Debug) << regime << " eval: acc=" << res.val_accuracy
                         << " rate=" << res.firing_rate
                         << " objective=" << res.objective;
      return res;
    }
  }
  CandidateResult res;
  res.failed = true;
  res.objective = cfg_.failure_penalty;
  res.health_retries = fr.health_retries;
  Telemetry::count("bo.failed_candidates");
  SNNSKIP_LOG(Warn) << regime << " eval: candidate failed (diverged="
                    << fr.diverged << ", retries=" << fr.health_retries
                    << "), penalized objective=" << res.objective;
  return res;
}

std::vector<CandidateResult> CandidateEvaluator::evaluate_shared_batch(
    std::size_t start_idx, const std::vector<EncodingVec>& codes,
    std::int64_t workers) {
  SNNSKIP_SPAN("bo", "evaluate_batch");
  const std::size_t k = codes.size();
  std::vector<CandidateResult> results(k);
  if (k == 0) return results;
  Telemetry::count_max("bo.parallel_candidates", static_cast<double>(k));

  // Healthy candidates keep their fine-tuned network here for the ordered
  // merge after the batch completes.
  std::vector<Network> nets(k);

  auto run_candidate = [&](std::size_t c) {
    SNNSKIP_SPAN("bo", "parallel_candidate");
    Telemetry::count("bo.finetunes");
    Network net = build(codes[c]);
    // Private copy of the store as it stands at batch entry: the shared
    // store is only read until the merge below.
    WeightStore ws = store_;
    ws.load_into(net);
    TrainConfig finetune = cfg_.finetune;
    finetune.seed = candidate_seed(finetune.seed, start_idx + c);
    const FitResult fr = [&] {
      SNNSKIP_SPAN("bo", "finetune");
      return fit(net, NeuronMode::Spiking, data_.train, nullptr, finetune);
    }();
    results[c] = measure(net, fr, codes[c], "shared");
    if (!results[c].failed) nets[c] = std::move(net);
  };

  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t c; (c = next.fetch_add(1)) < k;) run_candidate(c);
  };
  const std::size_t concurrency = std::min<std::size_t>(
      static_cast<std::size_t>(std::max<std::int64_t>(workers, 1)), k);
  if (concurrency <= 1 || ThreadPool::on_worker_thread()) {
    drain();
  } else {
    std::vector<std::future<void>> helpers;
    helpers.reserve(concurrency - 1);
    for (std::size_t i = 0; i < concurrency - 1; ++i) {
      helpers.push_back(ThreadPool::global().submit(drain));
    }
    drain();
    for (auto& h : helpers) h.get();
  }

  // Ordered merge on the calling thread: later candidates win where
  // slices overlap.
  for (std::size_t c = 0; c < k; ++c) {
    if (!results[c].failed) store_.store_from(nets[c]);
  }
  evaluations_ += k;
  return results;
}

CandidateResult CandidateEvaluator::evaluate_shared(const EncodingVec& code) {
  return evaluate_shared_batch(evaluations_, {code}).front();
}

CandidateResult CandidateEvaluator::evaluate_scratch(const EncodingVec& code) {
  SNNSKIP_SPAN("bo", "evaluate_scratch");
  ++evaluations_;
  Network net = build(code);
  Telemetry::count("bo.scratch_trainings");
  const FitResult fr = [&] {
    SNNSKIP_SPAN("bo", "scratch_train");
    return fit(net, NeuronMode::Spiking, data_.train, nullptr, cfg_.scratch);
  }();
  return measure(net, fr, code, "scratch");
}

}  // namespace snnskip
