// Micro-benchmark for the compiled inference engine (ISSUE 6).
//
// Freezes a ResNet-18S-shaped spiking network into an infer::Plan (BN
// folded into per-timestep weights, LIF fused into the conv epilogues,
// all buffers preplanned) and times Engine::step against the training
// graph's eval-mode forward — the event-driven SpikeCsr path the repo
// already ships — over a theta x input-rate sweep. Raising the LIF
// threshold theta lowers every layer's firing rate, so the sweep covers
// the packed bit-kernel regime (low density), the near-threshold band,
// and the dense fallback (high density), emitting BENCH_infer.json with
// the achieved density measured from the engine's exact popcounts.
//
// Every configuration also cross-checks the compiled plan's per-step
// outputs against the training eval forward (1e-4, the documented BN-fold
// reassociation tolerance), so the ctest smoke variant (--smoke 1,
// registered in bench/CMakeLists) runs compile + execute end-to-end under
// the sanitizer job on every tier-1 run.
//
// Models are loaded through serve::ModelRegistry (ISSUE 7) — the same
// build -> warm -> compile -> engine-pool path the serving daemon uses —
// and engines carry per-engine infer::ExecOptions (overridable with
// --dispatch-threshold) instead of mutating process globals.
//
// The int8 leg (ISSUE 10): --precision int8 (or the default `both`)
// additionally sweeps an int8-compiled twin of every configuration —
// loaded through the registry's self-calibrating int8 path — and checks
// the two acceptance gates inline: per-plan weight memory at most 0.30x
// of the fp32 plan, and top-1 drift vs the fp32 engine on a Bernoulli
// classification workload (strict >= 15/16 agreement at the stable smoke
// geometry; chance-floor agreement plus a zero-confident-flip bar at the
// chaotic full geometry — see the agree_min comment in run()). Int8 rows
// carry `precision`/`weight_bytes`/`top1_agreement` provenance so the
// regression gate keys fp32 and int8 rows separately.
//
// Usage: micro_infer [--smoke 1] [--out BENCH_infer.json] [--min-ms 50]
//                    [--width 16] [--dispatch-threshold T]
//                    [--precision fp32|int8|both]

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "serve/model_registry.h"
#include "tensor/spike_kernels.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace snnskip {
namespace {

// One sweep point: LIF threshold (scales every layer's firing rate down
// as it rises) x Bernoulli input rate.
struct SweepPoint {
  float theta;
  double rate;
};

std::vector<Tensor> spike_inputs(const Shape& s, std::int64_t steps,
                                 double p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> xs;
  for (std::int64_t t = 0; t < steps; ++t) {
    xs.push_back(Tensor::bernoulli(s, rng, static_cast<float>(p)));
  }
  return xs;
}

// Train-mode steps so BNTT accumulates per-timestep running stats
// (otherwise folding is a near-identity), then clear state for eval.
void warm_bn_stats(Network& net, const Shape& in_shape, std::int64_t steps) {
  Rng rng(99);
  net.reset_state();
  for (std::int64_t t = 0; t < steps; ++t) {
    net.forward(Tensor::bernoulli(in_shape, rng, 0.3f), /*train=*/true);
  }
  net.reset_state();
}

// Mean ns per timestep for the engine, whole sequences at a time (reset()
// at each sequence boundary, like the training loop resets state).
double time_engine_ns(infer::Engine& eng, const std::vector<Tensor>& xs,
                      Tensor* out, double min_ms) {
  for (int i = 0; i < 3; ++i) {  // warm up caches / branch history
    eng.reset();
    for (const Tensor& x : xs) eng.step(x, out);
  }
  std::int64_t steps = 0;
  Timer t;
  do {
    eng.reset();
    for (const Tensor& x : xs) eng.step(x, out);
    steps += static_cast<std::int64_t>(xs.size());
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_s() * 1e9 / static_cast<double>(steps);
}

// Summed logits over a sequence (rate-accumulated head output).
std::vector<double> summed_logits(infer::Engine& eng,
                                  const std::vector<Tensor>& xs) {
  eng.reset();
  Tensor out;
  std::vector<double> acc;
  for (const Tensor& x : xs) {
    eng.step(x, &out);
    if (acc.empty()) acc.assign(static_cast<std::size_t>(out.numel()), 0.0);
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      acc[static_cast<std::size_t>(i)] += static_cast<double>(out.data()[i]);
    }
  }
  return acc;
}

// Mean ns per timestep for the training graph's eval forward (its own
// dispatch — the event-driven CSR path below SparseExec::threshold).
double time_training_ns(Network& net, const std::vector<Tensor>& xs,
                        double min_ms) {
  for (int i = 0; i < 3; ++i) {
    net.reset_state();
    for (const Tensor& x : xs) (void)net.forward(x, /*train=*/false);
  }
  std::int64_t steps = 0;
  Timer t;
  do {
    net.reset_state();
    for (const Tensor& x : xs) (void)net.forward(x, /*train=*/false);
    steps += static_cast<std::int64_t>(xs.size());
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_s() * 1e9 / static_cast<double>(steps);
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool smoke = args.get_int("smoke", 0) != 0;
  const double min_ms = args.get_double("min-ms", smoke ? 2.0 : 50.0);
  const std::string out_path = args.get("out", "BENCH_infer.json");
  const std::int64_t width = args.get_int("width", smoke ? 8 : 16);
  const std::int64_t hw = smoke ? 8 : 16;
  const std::int64_t steps = 6;

  // Thetas span quiet (packed regime) to saturated (dense fallback);
  // the achieved density is measured, not assumed, and lands in the
  // committed JSON so the regression gate keys on the configuration
  // while humans read the density column.
  std::vector<SweepPoint> sweep;
  if (smoke) {
    sweep = {{1.0f, 0.15}};
  } else {
    sweep = {{2.0f, 0.05}, {2.0f, 0.15}, {1.0f, 0.05}, {1.0f, 0.15},
             {0.5f, 0.15}, {0.5f, 0.50}, {0.25f, 0.50}};
  }

  JsonArrayWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("%5s %6s %6s %6s %6s %9s %12s %12s %9s\n", "prec", "width",
              "hw", "theta", "rate", "density", "infer_ns", "train_ns",
              "speedup");

  const double hardware_threads =
      static_cast<double>(std::thread::hardware_concurrency());
  const Shape in_shape{1, 2, hw, hw};
  bool all_equal = true;

  // Per-engine execution options for every engine the registry pools;
  // env vars still seed the process defaults, CLI flags override both.
  infer::ExecOptions exec = infer::ExecOptions::defaults();
  exec.threshold = static_cast<float>(args.get_double(
      "dispatch-threshold", static_cast<double>(exec.threshold)));

  serve::ModelRegistry registry;

  const std::string prec_arg = args.get("precision", "both");
  std::vector<infer::Precision> precisions;
  if (prec_arg == "fp32") {
    precisions = {infer::Precision::Fp32};
  } else if (prec_arg == "int8") {
    precisions = {infer::Precision::Int8};
  } else if (prec_arg == "both") {
    precisions = {infer::Precision::Fp32, infer::Precision::Int8};
  } else {
    std::fprintf(stderr, "FAIL: --precision must be fp32|int8|both\n");
    return 1;
  }
  // Top-1 drift workload for the int8 leg (the fp32 engine is the
  // reference). Two regimes: the smoke geometry (width 8) has stable
  // decisions and keeps a strict near-unanimous bar. The full geometry
  // (width 16) is CHAOTIC for these untrained synthetic nets — fp32
  // packed-vs-dense accumulation-order rounding (~1e-6) alone amplifies
  // to ~15% relative logit deviation through near-threshold spike flips
  // — so raw agreement cannot reach trained-model levels there and the
  // gate instead fails on (a) agreement below 0.5, far above the
  // 1/num_classes chance floor any real kernel or scale bug collapses
  // to, and (b) ANY confident flip: an argmax move on a sequence whose
  // fp32 decision margin exceeds twice the int8 logit deviation, which
  // chaos cannot explain.
  const std::int64_t agree_seqs = smoke ? 16 : 100;
  const std::int64_t agree_min = smoke ? 15 : 50;

  for (const infer::Precision prec : precisions) {
    const bool i8 = prec == infer::Precision::Int8;
    float last_theta = -1.f;
    // Training-graph twin rebuilt per theta (shared across input rates);
    // warm_bn_stats matches the registry's warmup stream (Rng(99),
    // Bernoulli 0.3, batch-1), so the twin's weights are bitwise
    // identical to the registry-compiled plan's.
    Network net;
    serve::ModelHandle model, fp32_model;
    for (const SweepPoint& pt : sweep) {
      if (pt.theta != last_theta) {
        serve::ModelSpec spec;
        spec.name = "resnet18s-t" + std::to_string(pt.theta);
        spec.config.width = width;
        spec.config.in_channels = 2;
        spec.config.max_timesteps = steps;
        spec.config.seed = 7;
        spec.config.lif.threshold = pt.theta;
        spec.warm_bn_steps = steps;
        spec.in_h = hw;
        spec.in_w = hw;
        spec.exec = exec;
        fp32_model = registry.load(spec);  // reference + weight baseline
        if (i8) {
          spec.name += "-int8";
          spec.compile.precision = infer::Precision::Int8;
          model = registry.load(spec);
        } else {
          model = fp32_model;
        }

        net = build_model("resnet18s", spec.config,
                          default_adjacencies("resnet18s", spec.config));
        warm_bn_stats(net, in_shape, steps);
        last_theta = pt.theta;
      }
      const infer::PlanPtr& plan = model->plan();
      serve::LoadedModel::Lease lease = model->lease();
      infer::Engine& eng = *lease;
      const std::vector<Tensor> xs =
          spike_inputs(in_shape, steps, pt.rate, 17);

      double weight_ratio = 1.0;
      double agreement = 1.0;
      if (!i8) {
        // Cross-check: compiled plan vs training eval, every timestep.
        // 1e-4 covers the BN-fold reassociation (DESIGN.md §5g); any
        // dispatch bug (wrong chrow map, stale packed mask, ...) trips
        // this far earlier.
        net.reset_state();
        eng.reset();
        float worst = 0.f;
        for (const Tensor& x : xs) {
          const Tensor ref = net.forward(x, /*train=*/false);
          const Tensor got = eng.step(x);
          worst = std::max(worst, Tensor::max_abs_diff(ref, got));
        }
        if (worst > 1e-4f) {
          std::fprintf(
              stderr,
              "FAIL: engine/training mismatch %.3g (theta=%.2f rate=%.2f)\n",
              static_cast<double>(worst), static_cast<double>(pt.theta),
              pt.rate);
          all_equal = false;
        }
      } else {
        // Acceptance gate 1: per-plan weight memory <= 0.30x of fp32.
        weight_ratio =
            static_cast<double>(plan->weight_bytes()) /
            static_cast<double>(fp32_model->plan()->weight_bytes());
        if (weight_ratio > 0.30) {
          std::fprintf(stderr,
                       "FAIL: int8 weight memory %.3fx of fp32 (limit 0.30x, "
                       "theta=%.2f)\n",
                       weight_ratio, static_cast<double>(pt.theta));
          all_equal = false;
        }
        // Acceptance gate 2: top-1 drift vs the fp32 engine (regimes
        // documented at agree_min above).
        serve::LoadedModel::Lease fref = fp32_model->lease();
        std::int64_t agree = 0, confident_flips = 0;
        for (std::int64_t s = 0; s < agree_seqs; ++s) {
          const std::vector<Tensor> seq =
              spike_inputs(in_shape, steps, pt.rate,
                           1000 + static_cast<std::uint64_t>(s));
          const std::vector<double> a = summed_logits(*fref, seq);
          const std::vector<double> b = summed_logits(eng, seq);
          std::size_t ia = 0, ib = 0;
          double deviation = 0.0;
          for (std::size_t i = 0; i < a.size(); ++i) {
            deviation = std::max(deviation, std::fabs(a[i] - b[i]));
            if (a[i] > a[ia]) ia = i;
            if (b[i] > b[ib]) ib = i;
          }
          double runner_up = -std::numeric_limits<double>::infinity();
          for (std::size_t i = 0; i < a.size(); ++i) {
            if (i != ia && a[i] > runner_up) runner_up = a[i];
          }
          const double margin = a[ia] - runner_up;
          if (ia == ib) {
            ++agree;
          } else if (margin > 2.0 * deviation) {
            ++confident_flips;
            std::fprintf(stderr,
                         "FAIL: int8 confident top-1 flip (fp32 margin "
                         "%.4f > 2x logit deviation %.4f, seq %lld, "
                         "theta=%.2f rate=%.2f)\n",
                         margin, deviation, static_cast<long long>(s),
                         static_cast<double>(pt.theta), pt.rate);
          }
        }
        agreement = static_cast<double>(agree) /
                    static_cast<double>(agree_seqs);
        if (agree < agree_min || confident_flips > 0) {
          std::fprintf(stderr,
                       "FAIL: int8 top-1 drift: agreement %lld/%lld "
                       "(need %lld) with %lld confident flip(s) (need 0, "
                       "theta=%.2f rate=%.2f)\n",
                       static_cast<long long>(agree),
                       static_cast<long long>(agree_seqs),
                       static_cast<long long>(agree_min),
                       static_cast<long long>(confident_flips),
                       static_cast<double>(pt.theta), pt.rate);
          all_equal = false;
        }
      }

      // Achieved density over every spiking value (network input
      // included), from the engine's exact popcounts — the quantity
      // dispatch gates on.
      eng.reset();
      eng.reset_stats();
      std::int64_t input_nnz = 0;
      for (const Tensor& x : xs) {
        (void)eng.step(x);
        input_nnz += count_nonzero(x.data(), x.numel());
      }
      std::int64_t spiking_floats = 0;
      for (const infer::ValuePlan& v : plan->values) {
        if (v.spiking) spiking_floats += v.floats;
      }
      const double density =
          static_cast<double>(eng.stats().spikes + input_nnz) /
          static_cast<double>(steps * spiking_floats);
      const infer::ExecStats stats = eng.stats();

      Tensor out;
      const double infer_ns = time_engine_ns(eng, xs, &out, min_ms);
      const double train_ns = time_training_ns(net, xs, min_ms);
      const double speedup = infer_ns > 0.0 ? train_ns / infer_ns : 0.0;

      std::printf("%5s %6lld %6lld %6.2f %6.2f %9.3f %12.0f %12.0f %8.2fx\n",
                  infer::precision_name(prec), static_cast<long long>(width),
                  static_cast<long long>(hw), static_cast<double>(pt.theta),
                  pt.rate, density, infer_ns, train_ns, speedup);

      json.begin_row();
      json.field("width", static_cast<double>(width));
      json.field("hw", static_cast<double>(hw));
      json.field("theta", static_cast<double>(pt.theta));
      json.field("firing_rate", pt.rate);
      json.field("precision", infer::precision_name(prec));
      json.field("achieved_density", density);
      json.field("infer_ns_per_step", infer_ns);
      json.field("train_ns_per_step", train_ns);
      json.field("speedup_vs_training", speedup);
      json.field("packed_dispatches",
                 static_cast<double>(stats.packed_dispatches));
      json.field("dense_dispatches",
                 static_cast<double>(stats.dense_dispatches));
      json.field("energy_pj_per_step",
                 stats.energy_pj() / static_cast<double>(steps));
      json.field("weight_bytes", static_cast<double>(plan->weight_bytes()));
      if (i8) {
        json.field("weight_ratio_vs_fp32", weight_ratio);
        json.field("top1_agreement", agreement);
      }
      json.field("hardware_threads", hardware_threads);
      benchcfg::provenance_fields(json);
      json.end_row();
    }
  }

  if (!all_equal) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace snnskip

int main(int argc, char** argv) { return snnskip::run(argc, argv); }
