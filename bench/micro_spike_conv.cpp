// Micro-benchmark for the event-driven spike convolution path (ISSUE 1).
//
// Sweeps firing rate x channel count over ResNet-18S-shaped 3x3 convs and
// times eval-mode forward passes with the sparse path on vs forced dense,
// emitting BENCH_spike_conv.json (mean ns/timestep per mode, speedup, and
// the achieved input density — same definition as FiringRateRecorder).
//
// Every configuration also cross-checks sparse vs dense outputs to 1e-4,
// so the ctest smoke variant (--smoke 1, registered in bench/CMakeLists)
// exercises kernel correctness on every tier-1 run without paying for the
// full timing sweep.
//
// Usage: micro_spike_conv [--smoke 1] [--out BENCH_spike_conv.json]
//                         [--min-ms 50]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "nn/conv2d.h"
#include "tensor/spike_kernels.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace snnskip {
namespace {

struct ConvShape {
  std::int64_t channels;
  std::int64_t hw;  // square spatial size
};

// Mean ns per forward call, timing repeatedly until `min_ms` of work.
double time_forward_ns(Conv2d& conv, const Tensor& x, double min_ms) {
  // Warm up: stabilizes the workspace arena high-water mark and caches.
  for (int i = 0; i < 3; ++i) (void)conv.forward(x, /*train=*/false);
  std::int64_t reps = 0;
  Timer t;
  do {
    (void)conv.forward(x, /*train=*/false);
    ++reps;
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_s() * 1e9 / static_cast<double>(reps);
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool smoke = args.get_int("smoke", 0) != 0;
  const double min_ms = args.get_double("min-ms", smoke ? 2.0 : 50.0);
  const std::string out_path = args.get("out", "BENCH_spike_conv.json");

  // ResNet-18S stage shapes on 32x32 inputs; the smoke variant keeps five
  // tiny configs so it finishes in well under a second.
  std::vector<ConvShape> shapes;
  std::vector<double> rates;
  if (smoke) {
    // 2x2 and 1x1 outputs reach the dense path's batched small-output
    // lowering; the 6- and 12-channel shapes are the search's stage-0 and
    // stage-1 widths, whose direct kernels run partial vectors (O = 6, 12).
    shapes = {{16, 8}, {32, 2}, {64, 1}, {6, 8}, {12, 4}};
    rates = {0.05, 1.0};
  } else {
    shapes = {{64, 32}, {128, 16}, {256, 8}};
    rates = {0.01, 0.05, 0.10, 0.15, 0.25, 0.50, 1.0};
  }

  JsonArrayWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("%8s %6s %6s %12s %12s %9s %9s\n", "channels", "hw", "rate",
              "sparse_ns", "dense_ns", "speedup", "density");

  // The dense leg runs at threshold 0 (dense everywhere); the sparse leg
  // at the configured threshold.
  const float threshold = SparseExec::threshold();
  bool all_equal = true;
  for (const ConvShape& sh : shapes) {
    Rng rng(42);
    Conv2d conv(sh.channels, sh.channels, 3, 1, 1, /*bias=*/false, rng,
                "bench_conv");
    for (double rate : rates) {
      Tensor x = Tensor::bernoulli(
          Shape{1, sh.channels, sh.hw, sh.hw}, rng, static_cast<float>(rate));
      const double density = x.nonzero_fraction();

      SparseExec::set_threshold(threshold);
      Tensor y_sparse = conv.forward(x, /*train=*/false);
      const double sparse_ns = time_forward_ns(conv, x, min_ms);

      SparseExec::set_threshold(0.f);
      Tensor y_dense = conv.forward(x, /*train=*/false);
      const double dense_ns = time_forward_ns(conv, x, min_ms);

      const float diff = Tensor::max_abs_diff(y_sparse, y_dense);
      if (diff > 1e-4f) {
        std::fprintf(stderr,
                     "FAIL: sparse/dense mismatch %.3g (C=%lld rate=%.2f)\n",
                     static_cast<double>(diff),
                     static_cast<long long>(sh.channels), rate);
        all_equal = false;
      }

      const double speedup = sparse_ns > 0.0 ? dense_ns / sparse_ns : 0.0;
      std::printf("%8lld %6lld %6.2f %12.0f %12.0f %8.2fx %9.3f\n",
                  static_cast<long long>(sh.channels),
                  static_cast<long long>(sh.hw), rate, sparse_ns, dense_ns,
                  speedup, density);

      json.begin_row();
      json.field("channels", static_cast<double>(sh.channels));
      json.field("hw", static_cast<double>(sh.hw));
      json.field("firing_rate", rate);
      json.field("achieved_density", density);
      json.field("sparse_ns_per_timestep", sparse_ns);
      json.field("dense_ns_per_timestep", dense_ns);
      json.field("speedup_vs_dense", speedup);
      benchcfg::provenance_fields(json);
      json.end_row();
    }
  }
  SparseExec::set_threshold(threshold);

  if (!all_equal) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace snnskip

int main(int argc, char** argv) { return snnskip::run(argc, argv); }
