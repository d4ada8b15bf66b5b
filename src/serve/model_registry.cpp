#include "serve/model_registry.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "fault/inject.h"
#include "infer/quant.h"
#include "tensor/tensor.h"
#include "telemetry/telemetry.h"
#include "train/checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/runtime_env.h"

namespace snnskip::serve {

namespace {

bool parse_bool(const std::string& v) {
  std::string t;
  t.reserve(v.size());
  for (char c : v) {
    t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return !(t == "0" || t == "false" || t == "off" || t == "no");
}

/// A whole manifest number. std::sto* read the longest numeric prefix
/// ("8abc" reads as 8) and std::stoull wraps a minus ("-1" reads as
/// 2^64 - 1), so a value not consumed whole, or a negative unsigned one,
/// throws std::invalid_argument like any other unparsable value.
template <typename T>
T parse_number(const std::string& s) {
  std::size_t end = 0;
  T v{};
  if constexpr (std::is_floating_point_v<T>) {
    v = std::stof(s, &end);
  } else if constexpr (std::is_unsigned_v<T>) {
    if (s.front() == '-') throw std::invalid_argument(s);
    v = std::stoull(s, &end);
  } else {
    v = std::stoll(s, &end);
  }
  if (end != s.size()) throw std::invalid_argument(s);
  return v;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t end =
      (dot == std::string::npos || dot <= start) ? path.size() : dot;
  return path.substr(start, end - start);
}

}  // namespace

ModelSpec ModelSpec::from_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in || SNNSKIP_FAULT("serve.manifest_corrupt")) {
    throw std::runtime_error("serve::ModelSpec: cannot read manifest " + path);
  }
  ModelSpec spec;
  std::string line;
  std::size_t lineno = 0;
  std::set<std::string> seen_keys;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key, value;
    if (!(ls >> key)) continue;  // blank / comment-only line
    ls >> std::ws;
    std::getline(ls, value);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.pop_back();
    }
    auto bad = [&](const std::string& why) {
      throw std::runtime_error("serve::ModelSpec: " + path + ":" +
                               std::to_string(lineno) + ": " + why);
    };
    if (value.empty()) bad("missing value for key '" + key + "'");
    if (!seen_keys.insert(key).second) {
      // A duplicate key is almost always a hand-edit gone wrong; silently
      // letting the last one win would serve a model nobody asked for.
      bad("duplicate key '" + key + "'");
    }
    try {
      if (key == "name") {
        spec.name = value;
      } else if (key == "family") {
        spec.family = value;
      } else if (key == "width") {
        spec.config.width = parse_number<std::int64_t>(value);
      } else if (key == "in_channels") {
        spec.config.in_channels = parse_number<std::int64_t>(value);
      } else if (key == "num_classes") {
        spec.config.num_classes = parse_number<std::int64_t>(value);
      } else if (key == "timesteps") {
        spec.config.max_timesteps = parse_number<std::int64_t>(value);
      } else if (key == "seed") {
        spec.config.seed = parse_number<std::uint64_t>(value);
      } else if (key == "theta") {
        spec.config.lif.threshold = parse_number<float>(value);
      } else if (key == "neuron") {
        if (value == "lif") {
          spec.config.neuron = NeuronKind::Lif;
        } else if (value == "plif") {
          spec.config.neuron = NeuronKind::Plif;
        } else {
          bad("unknown neuron kind '" + value + "'");
        }
      } else if (key == "checkpoint") {
        spec.checkpoint =
            value.front() == '/' ? value : dirname_of(path) + "/" + value;
      } else if (key == "warm_bn_steps") {
        spec.warm_bn_steps = parse_number<std::int64_t>(value);
      } else if (key == "batch") {
        // Accepted for manifests that name a compiled batch, then
        // ignored: every plan runs one request.
        if (parse_number<std::int64_t>(value) < 1) {
          throw std::out_of_range(key);
        }
      } else if (key == "in_h") {
        spec.in_h = parse_number<std::int64_t>(value);
      } else if (key == "in_w") {
        spec.in_w = parse_number<std::int64_t>(value);
      } else if (key == "fold_bn") {
        spec.compile.fold_bn = parse_bool(value);
      } else if (key == "precision") {
        if (!infer::parse_precision(value, &spec.compile.precision)) {
          bad("unknown precision '" + value + "' (fp32|int8)");
        }
      } else if (key == "calib_steps") {
        spec.calib_steps = parse_number<std::int64_t>(value);
      } else if (key == "threshold") {
        spec.exec.threshold = parse_number<float>(value);
        // A density cutoff lives in [0, 1]; NaN fails both comparisons.
        if (!(spec.exec.threshold >= 0.f && spec.exec.threshold <= 1.f)) {
          throw std::out_of_range(key);
        }
      } else {
        bad("unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      bad("unparsable value '" + value + "' for key '" + key + "'");
    } catch (const std::out_of_range&) {
      bad("out-of-range value '" + value + "' for key '" + key + "'");
    }
  }
  if (spec.name.empty()) spec.name = file_stem(path);
  return spec;
}

LoadedModel::LoadedModel(ModelSpec spec, infer::PlanPtr plan)
    : spec_(std::move(spec)), plan_(std::move(plan)) {}

LoadedModel::Lease LoadedModel::lease() {
  std::unique_ptr<infer::Engine> eng;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      eng = std::move(free_.back());
      free_.pop_back();
    } else {
      ++created_;
    }
  }
  if (!eng) {
    // Construct outside the lock: arena allocation is the expensive part
    // and must not serialize concurrent leases of other engines.
    eng = std::make_unique<infer::Engine>(plan_, spec_.exec);
  }
  eng->reset();
  return Lease(this, std::move(eng));
}

void LoadedModel::release(std::unique_ptr<infer::Engine> e) {
  if (!e) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(e));
}

std::int64_t LoadedModel::engines_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

std::size_t ModelRegistry::capacity_from_env() {
  const std::int64_t v = env::get_int("SNNSKIP_SERVE_CACHE", 4);
  return static_cast<std::size_t>(v < 1 ? 1 : v);
}

ModelRegistry::ModelRegistry(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

ModelHandle ModelRegistry::load(const ModelSpec& spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("serve::ModelRegistry: spec.name is empty");
  }
  const ModelConfig& cfg = spec.config;
  for (const auto& [key, v] :
       {std::pair<const char*, std::int64_t>{"width", cfg.width},
        {"in_channels", cfg.in_channels},
        {"num_classes", cfg.num_classes},
        {"timesteps", cfg.max_timesteps},
        {"in_h", spec.in_h},
        {"in_w", spec.in_w}}) {
    if (v < 1) {
      throw std::invalid_argument("serve::ModelRegistry: " +
                                  std::string(key) + " < 1");
    }
  }
  if (spec.warm_bn_steps < 0 || spec.calib_steps < 0) {
    throw std::invalid_argument(
        "serve::ModelRegistry: warm_bn_steps or calib_steps < 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (name == spec.name) {
      entry.last_used = ++tick_;
      Telemetry::count("serve.model_cache.hits");
      return entry.model;
    }
  }

  // Cold load: build -> restore/warm -> compile -> pool. Loads serialize
  // behind the registry lock (cheap next to training; serving hot paths
  // only touch LoadedModel, which has its own lock).
  Network net = build_model(
      spec.family, spec.config,
      spec.adjacencies.empty()
          ? default_adjacencies(spec.family, spec.config)
          : spec.adjacencies);
  const Shape in_shape = spec.input_shape();
  if (!spec.checkpoint.empty()) {
    if (load_network(spec.checkpoint, net) == 0) {
      // Covers the missing file, a truncated/torn write, and any CRC
      // mismatch: load_entries restores whole-or-not-at-all (ISSUE 3).
      throw std::runtime_error(
          "serve::ModelRegistry: checkpoint missing or corrupt "
          "(restored no parameters): " +
          spec.checkpoint);
    }
  } else if (spec.warm_bn_steps > 0) {
    // Fixed warmup stream: an evicted model reloaded later recovers the
    // exact same BNTT stats, so LRU round-trips are bit-reproducible.
    Rng rng(99);
    net.reset_state();
    for (std::int64_t t = 0; t < spec.warm_bn_steps; ++t) {
      net.forward(Tensor::bernoulli(in_shape, rng, 0.3f), /*train=*/true);
    }
  }
  net.reset_state();
  infer::Plan plan;
  if (spec.compile.precision == infer::Precision::Int8) {
    // Self-calibration (ISSUE 10): profile activation ranges on an FP32
    // twin over a fixed seeded spike stream, then compile int8 from the
    // profile.
    infer::CompileOptions fp = spec.compile;
    fp.precision = infer::Precision::Fp32;
    fp.quant = nullptr;
    infer::PlanPtr fplan = infer::compile(net, in_shape, fp);
    const std::int64_t steps = spec.calib_steps < 1 ? 1 : spec.calib_steps;
    std::vector<std::vector<Tensor>> seqs(1);
    Rng crng(123);
    for (std::int64_t t = 0; t < steps; ++t) {
      seqs[0].push_back(Tensor::bernoulli(in_shape, crng, 0.3f));
    }
    const infer::QuantProfile prof = infer::calibrate_quant(fplan, seqs);
    infer::CompileOptions qopts = spec.compile;
    qopts.quant = &prof;
    plan = infer::compile_plan(net, in_shape, qopts);
  } else {
    plan = infer::compile_plan(net, in_shape, spec.compile);
  }
  plan.model_name = spec.name;
  auto model = std::make_shared<LoadedModel>(
      spec, std::make_shared<const infer::Plan>(std::move(plan)));

  entries_.emplace_back(spec.name, Entry{model, ++tick_});
  ++cold_loads_;
  Telemetry::count("serve.model_cache.cold_loads");
  while (entries_.size() > capacity_) {
    auto lru = std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        });
    Telemetry::count("serve.model_cache.evictions");
    entries_.erase(lru);
  }
  return model;
}

ModelHandle ModelRegistry::load(const std::string& manifest_path) {
  return load(ModelSpec::from_manifest(manifest_path));
}

ModelHandle ModelRegistry::try_load(const ModelSpec& spec,
                                    std::string* error) {
  try {
    return load(spec);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    SNNSKIP_LOG(Error) << "serve: model load failed, skipping '" << spec.name
                       << "': " << e.what();
    Telemetry::count("serve.model_cache.load_failures");
    return nullptr;
  }
}

ModelHandle ModelRegistry::try_load(const std::string& manifest_path,
                                    std::string* error) {
  try {
    return load(manifest_path);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    SNNSKIP_LOG(Error) << "serve: model load failed, skipping manifest "
                       << manifest_path << ": " << e.what();
    Telemetry::count("serve.model_cache.load_failures");
    return nullptr;
  }
}

bool ModelRegistry::evict(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == name) {
      entries_.erase(it);
      Telemetry::count("serve.model_cache.evictions");
      return true;
    }
  }
  return false;
}

std::int64_t ModelRegistry::cold_loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_loads_;
}

std::size_t ModelRegistry::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool ModelRegistry::is_resident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, entry] : entries_) {
    if (n == name) return true;
  }
  return false;
}

}  // namespace snnskip::serve
