#pragma once
// Model cache for multi-tenant serving (ISSUE 7).
//
// ModelRegistry::load unifies the load-then-compile sequence that used to
// be duplicated ad hoc (build the zoo network, optionally restore an
// SNNSKIP2 checkpoint, warm BNTT stats for synthetic weights,
// infer::compile at the frozen (1, C, H, W) request shape) behind one
// call returning a shared ModelHandle:
//
//   serve::ModelRegistry registry(/*capacity=*/4);
//   serve::ModelHandle m = registry.load(spec);        // or load(path)
//   auto lease = m->lease();                           // pooled Engine
//   lease->step(x, &out);
//
// The registry keeps at most `capacity` models resident in LRU order;
// loading an evicted model again rebuilds it from its spec (checkpoint
// re-read, plan re-compiled). Eviction only drops the registry's
// reference — outstanding ModelHandles keep their model fully usable, so
// a running request can never lose its engine mid-run.
//
// Each LoadedModel owns one immutable PlanPtr and a pool of Engines
// compiled from it with the spec's per-engine ExecOptions. lease() pops a
// pooled engine (or constructs one when the pool is empty — pool size
// thus tracks peak concurrency, which the Server bounds by its worker
// count) and returns it on lease destruction. Engine::reset() is called
// on every lease, so each request sequence starts from zeroed neuron
// state.
//
// A model can also be described by a MANIFEST file — a trivial
// `key value` per line format (see ModelSpec::from_manifest) — which is
// what the snnskip-serve daemon's --manifests flag and
// ModelRegistry::load(path) consume.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/adjacency.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "tensor/shape.h"

namespace snnskip::serve {

struct ModelSpec {
  std::string name;              ///< registry key + telemetry label
  std::string family = "resnet18s";  ///< model-zoo family
  ModelConfig config{};
  /// Per-block adjacencies; empty selects default_adjacencies(family).
  std::vector<Adjacency> adjacencies;
  /// Optional SNNSKIP2 checkpoint restored into the built network before
  /// compiling. Empty keeps the seeded initialization.
  std::string checkpoint;
  /// Without a checkpoint, run this many train-mode steps on Bernoulli
  /// noise so the BNTT running stats are non-trivial before folding
  /// (synthetic-weights convenience used by benches and tests).
  std::int64_t warm_bn_steps = 0;
  /// Input plane (channels come from config).
  std::int64_t in_h = 8, in_w = 8;
  infer::CompileOptions compile{};
  /// Int8 plans (compile.precision == Int8) self-calibrate at load time:
  /// the registry compiles an FP32 twin, sweeps it over this
  /// many steps of a FIXED seeded Bernoulli spike stream (Rng(123),
  /// p=0.3) to profile activation ranges, then compiles the int8 plan
  /// from the profile. The stream is deterministic so an evicted model
  /// reloaded later gets a bit-identical plan (LRU round-trips stay
  /// reproducible, same contract as the BN warmup stream).
  std::int64_t calib_steps = 8;
  /// Per-engine dispatch options for every pooled engine of this model.
  infer::ExecOptions exec = infer::ExecOptions::defaults();

  /// The frozen (1, C, H, W) compile shape: one request per engine run.
  Shape input_shape() const {
    return Shape{1, config.in_channels, in_h, in_w};
  }

  /// Parse a `key value` manifest (one pair per line; '#' comments).
  /// Keys: name family width in_channels num_classes timesteps theta
  /// neuron (lif|plif) seed checkpoint warm_bn_steps in_h in_w fold_bn
  /// precision (fp32|int8) calib_steps threshold ([0, 1]). `batch` (a
  /// whole number >= 1) is accepted for older manifests and ignored:
  /// every plan compiles at batch 1.
  /// Relative checkpoint paths resolve against the manifest's directory.
  /// Throws std::runtime_error on unreadable files, unknown keys or
  /// unparsable or out-of-range values.
  static ModelSpec from_manifest(const std::string& path);
};

class LoadedModel {
 public:
  /// Built by ModelRegistry; not user-constructible directly.
  LoadedModel(ModelSpec spec, infer::PlanPtr plan);

  const ModelSpec& spec() const { return spec_; }
  const infer::PlanPtr& plan() const { return plan_; }

  /// RAII engine lease: returns the engine to the pool on destruction.
  class Lease {
   public:
    Lease(LoadedModel* m, std::unique_ptr<infer::Engine> e)
        : model_(m), engine_(std::move(e)) {}
    ~Lease() {
      if (model_ != nullptr) model_->release(std::move(engine_));
    }
    Lease(Lease&& o) noexcept
        : model_(o.model_), engine_(std::move(o.engine_)) {
      o.model_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    infer::Engine* operator->() const { return engine_.get(); }
    infer::Engine& operator*() const { return *engine_; }

   private:
    LoadedModel* model_;
    std::unique_ptr<infer::Engine> engine_;
  };

  /// Pop a pooled engine (reset to zeroed neuron state), constructing a
  /// new one when the pool is empty. Thread-safe.
  Lease lease();

  /// Engines ever constructed for this model (== peak concurrency).
  std::int64_t engines_created() const;

 private:
  friend class Lease;
  void release(std::unique_ptr<infer::Engine> e);

  const ModelSpec spec_;
  const infer::PlanPtr plan_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<infer::Engine>> free_;
  std::int64_t created_ = 0;
};

using ModelHandle = std::shared_ptr<LoadedModel>;

class ModelRegistry {
 public:
  /// `capacity` == max resident models; at least 1.
  explicit ModelRegistry(std::size_t capacity = capacity_from_env());

  /// SNNSKIP_SERVE_CACHE (default 4, min 1).
  static std::size_t capacity_from_env();

  /// Return the resident model named `spec.name` (refreshing recency), or
  /// build it: zoo network -> optional checkpoint restore -> BN warmup ->
  /// infer::compile -> engine pool. Evicts least-recently-used residents
  /// beyond capacity. Throws std::runtime_error when a checkpoint is
  /// named but cannot be restored, std::invalid_argument on bad specs
  /// (empty name; width, in_channels, num_classes, timesteps, in_h or
  /// in_w below 1; warm_bn_steps or calib_steps below 0).
  ModelHandle load(const ModelSpec& spec);

  /// Manifest-file convenience: load(ModelSpec::from_manifest(path)).
  ModelHandle load(const std::string& manifest_path);

  /// Recoverable variants of load(): a corrupt manifest (missing value,
  /// duplicate key, unknown key, unreadable file) or a CRC-failing /
  /// missing checkpoint returns nullptr with the reason in *error and an
  /// Error log line — never an uncaught throw. This is what the daemon's
  /// startup path and the quarantine reload use, so one bad model blob
  /// degrades one model instead of killing the process. The fault site
  /// `serve.manifest_corrupt` forces the manifest-parse failure
  /// deterministically.
  ModelHandle try_load(const ModelSpec& spec, std::string* error = nullptr);
  ModelHandle try_load(const std::string& manifest_path,
                       std::string* error = nullptr);

  /// Drop the resident entry for `name` (quarantine: the next load(spec)
  /// is forced cold, re-reading the checkpoint). Outstanding handles stay
  /// usable, exactly like LRU eviction. Returns false when not resident.
  bool evict(const std::string& name);

  /// Cold (cache-miss) loads so far — LRU tests observe reloads here.
  std::int64_t cold_loads() const;
  std::size_t resident() const;
  bool is_resident(const std::string& name) const;

 private:
  struct Entry {
    ModelHandle model;
    std::uint64_t last_used = 0;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Entry>> entries_;  // small; linear scan
  std::uint64_t tick_ = 0;
  std::int64_t cold_loads_ = 0;
};

}  // namespace snnskip::serve
