// Micro-benchmark for the runtime-dispatched GEMM microkernels.
//
// Sweeps L2-resident square shapes (plus the thin spike-panel shapes the
// conv path produces) across the dispatch levels — scalar, and AVX2 when
// the host has it — and emits BENCH_gemm.json (GFLOP/s and ns per call,
// one row per shape x level). Each sweep also times a reference
// microkernel compiled with compiler vectorization DISABLED ("scalar_ref"
// rows): the dispatch-level "scalar" table is deliberately left eligible
// for compiler auto-vectorization (it is the fallback real non-AVX2 hosts
// run), so the honest "hand-SIMD vs the scalar microkernel" comparison is
// speedup_vs_scalar_ref on the avx2 rows.
//
// The scalar-vs-AVX2 outputs are cross-checked bitwise on every
// configuration (the dispatch contract, DESIGN.md §5j), so the ctest
// smoke variant verifies the equivalence on every tier-1 run.
//
// Usage: micro_gemm [--smoke 1] [--out BENCH_gemm.json] [--min-ms 50]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "tensor/gemm.h"
#include "tensor/simd_ops.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace snnskip {
namespace {

struct GemmShape {
  std::int64_t m, n, k;
  const char* tag;
};

// True-scalar reference: the same row-major C += A*B kernel, with the
// compiler's auto-vectorizer switched off so it executes one float at a
// time — what "the scalar microkernel" means before any SIMD, compiler-
// or hand-written.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif
void ref_gemm_novec(std::int64_t m, std::int64_t n, std::int64_t k,
                    const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) ci[j] = 0.f;
    for (std::int64_t p = 0; p < k; ++p) {
      const float ap = a[i * k + p];
      const float* bp = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += ap * bp[j];
    }
  }
}

template <class F>
double time_ns(double min_ms, F&& body) {
  for (int i = 0; i < 3; ++i) body();
  std::int64_t reps = 0;
  Timer t;
  do {
    body();
    ++reps;
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_s() * 1e9 / static_cast<double>(reps);
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool smoke = args.get_int("smoke", 0) != 0;
  const double min_ms = args.get_double("min-ms", smoke ? 2.0 : 50.0);
  const std::string out_path = args.get("out", "BENCH_gemm.json");

  std::vector<GemmShape> shapes;
  if (smoke) {
    shapes = {{48, 48, 48, "square"}, {33, 47, 65, "odd"}};
  } else {
    // Squares up to ~L2 residency plus the tall-thin panel shapes the
    // im2col'd conv layers actually run (O x HoWo x CKK).
    shapes = {{64, 64, 64, "square"},    {128, 128, 128, "square"},
              {192, 192, 192, "square"}, {256, 256, 256, "square"},
              {64, 1024, 576, "conv_panel"}, {128, 256, 1152, "conv_panel"},
              {33, 47, 131, "odd"}};
  }

  std::vector<SimdLevel> levels = {SimdLevel::Scalar};
  if (simd_avx2_compiled() && cpu_has_avx2()) {
    levels.push_back(SimdLevel::Avx2);
  }

  JsonArrayWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }

  const SimdLevel entry_level = active_simd();
  std::printf("%12s %6s %6s %6s %12s %12s %10s %9s\n", "shape", "m", "n",
              "k", "simd", "ns_per_call", "gflops", "vs_ref");

  auto emit = [&](const GemmShape& sh, const char* level_tag, double ns,
                  double ref_ns) {
    const double flops = 2.0 * static_cast<double>(sh.m) *
                         static_cast<double>(sh.n) *
                         static_cast<double>(sh.k);
    const double gflops = flops / ns;  // flops per ns == GFLOP/s
    const double vs_ref = ref_ns > 0.0 ? ref_ns / ns : 1.0;
    std::printf("%12s %6lld %6lld %6lld %12s %12.0f %10.2f %8.2fx\n",
                sh.tag, static_cast<long long>(sh.m),
                static_cast<long long>(sh.n), static_cast<long long>(sh.k),
                level_tag, ns, gflops, vs_ref);
    json.begin_row();
    json.field("shape", sh.tag);
    json.field("m", static_cast<double>(sh.m));
    json.field("n", static_cast<double>(sh.n));
    json.field("k", static_cast<double>(sh.k));
    json.field("ns_per_call", ns);
    json.field("gflops", gflops);
    json.field("speedup_vs_scalar_ref", vs_ref);
    // Provenance by hand (not benchcfg::provenance_fields): the scalar_ref
    // row is not a dispatch level, so "simd" carries the row's own tag.
    json.field("simd", level_tag);
    json.field("cpu", cpu_signature());
    json.end_row();
  };

  bool all_equal = true;
  for (const GemmShape& sh : shapes) {
    Rng rng(91);
    std::vector<float> a(static_cast<std::size_t>(sh.m * sh.k));
    std::vector<float> b(static_cast<std::size_t>(sh.k * sh.n));
    std::vector<float> c(static_cast<std::size_t>(sh.m * sh.n), 0.f);
    for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));

    const double ref_ns = time_ns(min_ms, [&] {
      ref_gemm_novec(sh.m, sh.n, sh.k, a.data(), b.data(), c.data());
    });
    emit(sh, "scalar_ref", ref_ns, ref_ns);

    // Bitwise cross-check: the scalar and AVX2 tables must agree exactly.
    std::vector<float> c_scalar;
    for (SimdLevel lvl : levels) {
      if (set_active_simd(lvl) != lvl) continue;
      const double ns = time_ns(min_ms, [&] {
        gemm(sh.m, sh.n, sh.k, 1.f, a.data(), b.data(), 0.f, c.data());
      });
      if (lvl == SimdLevel::Scalar) {
        c_scalar = c;
      } else if (std::memcmp(c_scalar.data(), c.data(),
                             c.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "FAIL: scalar/avx2 gemm mismatch at %lldx%lldx%lld\n",
                     static_cast<long long>(sh.m),
                     static_cast<long long>(sh.n),
                     static_cast<long long>(sh.k));
        all_equal = false;
      }
      emit(sh, to_string(lvl), ns, ref_ns);
    }
  }
  set_active_simd(entry_level);

  if (!all_equal) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace snnskip

int main(int argc, char** argv) { return snnskip::run(argc, argv); }
