#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataloader.h"
#include "data/synthetic_dvs_cifar.h"
#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "nn/optimizer.h"
#include "snn/encoders.h"
#include "telemetry/telemetry.h"
#include "tensor/cpu_features.h"
#include "tensor/epilogue.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_csr.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"
#include "train/data_parallel.h"
#include "train/trainer.h"
#include "tune/tune.h"
#include "util/rng.h"
#include "util/timer.h"

namespace snnskip::tune {

namespace {

std::uint64_t span_total_ns(const char* key) {
  for (const telemetry::SpanStat& s : telemetry::snapshot().spans) {
    if (std::string_view(s.cat) == "tune" && s.name == key) return s.total_ns;
  }
  return 0;
}

}  // namespace

double measure_span_seconds(const char* key, double min_ms,
                            const std::function<void()>& body) {
  body();  // warm caches / branch history / workspace arenas
  const std::uint64_t before = span_total_ns(key);
  std::int64_t reps = 0;
  Timer t;
  do {
    const std::uint64_t s = Telemetry::now_ns();
    body();
    telemetry::record_span("tune", key, s, Telemetry::now_ns() - s,
                           /*emit_trace=*/false);
    ++reps;
  } while (t.elapsed_ms() < min_ms);
  const std::uint64_t after = span_total_ns(key);
  return static_cast<double>(after - before) * 1e-9 /
         static_cast<double>(reps);
}

namespace {

/// Deterministic binary spike pattern at (approximately) `density`.
float spike_at(std::int64_t i, double density) {
  const std::uint64_t h = static_cast<std::uint64_t>(i) * 2654435761u % 1000u;
  return static_cast<double>(h) < density * 1000.0 ? 1.f : 0.f;
}

// ---- Shared workloads ------------------------------------------------------

struct GemmWork {
  std::int64_t n = 0;
  std::vector<float> a, b, c;
};

std::shared_ptr<GemmWork> make_gemm_work(bool smoke) {
  auto w = std::make_shared<GemmWork>();
  w->n = smoke ? 48 : 192;  // L2-resident: 3 * 192^2 floats ~ 430 KiB
  const std::int64_t nn = w->n * w->n;
  w->a.resize(static_cast<std::size_t>(nn));
  w->b.resize(static_cast<std::size_t>(nn));
  w->c.assign(static_cast<std::size_t>(nn), 0.f);
  for (std::int64_t i = 0; i < nn; ++i) {
    w->a[static_cast<std::size_t>(i)] = 0.001f * static_cast<float>(i % 37);
    w->b[static_cast<std::size_t>(i)] = 0.001f * static_cast<float>(i % 29);
  }
  return w;
}

void run_gemm(GemmWork& w) {
  gemm(w.n, w.n, w.n, 1.f, w.a.data(), w.b.data(), 0.f, w.c.data());
  gemm_tn(w.n, w.n, w.n, 1.f, w.a.data(), w.b.data(), 0.f, w.c.data());
}

struct ConvWork {
  ConvGeometry g{};
  std::int64_t o_c = 0, n_img = 0;
  std::vector<float> weight, out;
  std::vector<double> densities;
  std::vector<std::vector<float>> inputs;  // dense, one per density
  std::vector<SpikeCsr> csr;               // packed, one per density
  // (density index, sparse path?) -> measured seconds; valid for the
  // duration of one family (nothing it depends on changes mid-family).
  std::map<std::pair<int, int>, double> cache;
};

std::shared_ptr<ConvWork> make_conv_work(bool smoke) {
  auto w = std::make_shared<ConvWork>();
  const std::int64_t hw = smoke ? 8 : 16;
  w->g = ConvGeometry{/*in_c=*/8, hw, hw, /*kernel=*/3, /*stride=*/1,
                      /*pad=*/1};
  w->o_c = smoke ? 8 : 16;
  w->n_img = 2;
  const std::int64_t ckk = w->g.col_rows();
  w->weight.resize(static_cast<std::size_t>(w->o_c * ckk));
  for (std::size_t i = 0; i < w->weight.size(); ++i) {
    w->weight[i] = 0.01f * static_cast<float>((static_cast<int>(i) % 17) - 8);
  }
  const std::int64_t numel = w->g.in_c * hw * hw;
  w->out.assign(
      static_cast<std::size_t>(w->n_img * w->o_c * w->g.col_cols()), 0.f);
  w->densities = {0.05, 0.15, 0.25, 0.35, 0.5};
  w->inputs.resize(w->densities.size());
  w->csr.resize(w->densities.size());
  for (std::size_t d = 0; d < w->densities.size(); ++d) {
    std::vector<float>& in = w->inputs[d];
    in.resize(static_cast<std::size_t>(w->n_img * numel));
    for (std::size_t i = 0; i < in.size(); ++i) {
      // Offset per density so the patterns differ.
      in[i] = spike_at(static_cast<std::int64_t>(i + 131 * d),
                       w->densities[d]);
    }
    w->csr[d].build(in.data(), w->n_img, numel);
  }
  return w;
}

void run_conv_sparse(ConvWork& w, std::size_t d) {
  spike_conv2d_forward(w.g, w.csr[d], w.weight.data(), nullptr, w.o_c,
                       w.out.data(), Workspace::tls());
}

void run_conv_dense(ConvWork& w, std::size_t d) {
  const std::int64_t ckk = w.g.col_rows();
  const std::int64_t howo = w.g.col_cols();
  const std::int64_t numel = w.g.in_c * w.g.in_h * w.g.in_w;
  auto scope = Workspace::tls().scope();
  float* cols = scope.floats(static_cast<std::size_t>(ckk * howo));
  for (std::int64_t img = 0; img < w.n_img; ++img) {
    im2col(w.g, w.inputs[d].data() + img * numel, cols);
    gemm(w.o_c, howo, ckk, 1.f, w.weight.data(), cols, 0.f,
         w.out.data() + img * w.o_c * howo);
  }
}

struct LifWork {
  std::int64_t p = 0, rows = 0;
  std::vector<float> acc, m, dst;
  std::vector<std::uint64_t> wbits;
};

std::shared_ptr<LifWork> make_lif_work(bool smoke) {
  auto w = std::make_shared<LifWork>();
  w->p = smoke ? 256 : 4096;
  w->rows = 8;
  const std::size_t n = static_cast<std::size_t>(w->p * w->rows);
  w->acc.resize(n);
  w->m.assign(n, 0.f);
  w->dst.assign(n, 0.f);
  w->wbits.assign(static_cast<std::size_t>((w->p * w->rows + 63) / 64), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    w->acc[i] = 0.002f * static_cast<float>((static_cast<int>(i) % 97) - 48);
  }
  return w;
}

void run_lif(LifWork& w) {
  for (std::int64_t r = 0; r < w.rows; ++r) {
    const std::int64_t off = r * w.p;
    (void)lif_epilogue_row(w.p, w.acc.data() + off, /*use_scale=*/1,
                           /*scale=*/1.02f, /*bias=*/0.01f, /*beta=*/0.9f,
                           /*theta=*/1.f, w.m.data() + off,
                           w.dst.data() + off, w.wbits.data(),
                           /*bit0=*/off);
  }
}

struct TransposeWork {
  std::int64_t rows = 0, cols = 0;
  std::vector<float> src, dst;
};

std::shared_ptr<TransposeWork> make_transpose_work(bool smoke) {
  auto w = std::make_shared<TransposeWork>();
  w->rows = smoke ? 64 : 512;
  w->cols = smoke ? 96 : 1152;
  w->src.resize(static_cast<std::size_t>(w->rows * w->cols));
  w->dst.assign(w->src.size(), 0.f);
  for (std::size_t i = 0; i < w->src.size(); ++i) {
    w->src[i] = 1e-4f * static_cast<float>(static_cast<int>(i) % 251);
  }
  return w;
}

struct InferWork {
  infer::PlanPtr plan;
  Shape in_shape;
  std::vector<Tensor> xs;
};

std::shared_ptr<InferWork> make_infer_work(bool smoke) {
  auto w = std::make_shared<InferWork>();
  ModelConfig mc;
  mc.in_channels = 2;
  mc.width = smoke ? 4 : 8;
  mc.max_timesteps = 4;
  mc.seed = 7;
  Network net = build_model("single_block", mc,
                            default_adjacencies("single_block", mc));
  const std::int64_t hw = smoke ? 8 : 12;
  w->in_shape = Shape{1, 2, hw, hw};
  // A few train-mode steps so BNTT has non-identity statistics to fold.
  Rng rng(99);
  net.reset_state();
  for (int t = 0; t < 4; ++t) {
    (void)net.forward(Tensor::bernoulli(w->in_shape, rng, 0.3f),
                      /*train=*/true);
  }
  net.reset_state();
  w->plan = infer::compile(net, w->in_shape);
  Rng xr(17);
  for (int t = 0; t < 4; ++t) {
    w->xs.push_back(Tensor::bernoulli(w->in_shape, xr, 0.15f));
  }
  return w;
}

struct DpWork {
  ModelConfig model;
  std::int64_t timesteps = 0;
  Batch batch;
};

std::shared_ptr<DpWork> make_dp_work(bool smoke) {
  auto w = std::make_shared<DpWork>();
  SyntheticConfig data;
  data.height = 8;
  data.width = 8;
  data.timesteps = 2;
  data.train_size = 32;
  data.seed = 31;
  w->model.in_channels = 2;
  w->model.max_timesteps = 2;
  w->model.width = 4;
  w->model.seed = 5;
  w->timesteps = 2;
  SyntheticDvsCifar ds(data, Split::Train);
  DataLoader loader(ds, smoke ? 8 : 16, /*shuffle=*/false, 0);
  loader.start_epoch(0);
  if (!loader.next(w->batch)) throw std::runtime_error("tune: empty dataset");
  return w;
}

KernelConfig current_with(const std::function<void(KernelConfig*)>& edit) {
  KernelConfig c = kernel_config();
  edit(&c);
  return c;
}

}  // namespace

std::vector<Family> build_families(const TuneOptions& opts) {
  const bool smoke = opts.smoke;
  const double min_ms = opts.min_ms;
  std::vector<Family> fams;

  // ---- simd: the composite workload picks the process-wide level -----------
  {
    Family f;
    f.name = "simd";
    Axis levels{"simd", {}};
    // Tune only over the bit-identical tables (Scalar, Avx2). Avx2Fma
    // reassociates accumulation and must stay a per-user opt-in
    // (SNNSKIP_SIMD=avx2fma): an autotuned profile loads process-wide,
    // and silently fusing there would break the deterministic-training
    // and engine-equals-training bitwise contracts (DESIGN.md §5j).
    const int max_lvl =
        std::min(static_cast<int>(max_simd_level()),
                 static_cast<int>(SimdLevel::Avx2));
    for (int l = 0; l <= max_lvl; ++l) levels.choices.push_back(l);
    f.space.axes = {levels};
    // Default = what "auto" resolves to.
    f.default_code = {max_lvl};
    auto gw = make_gemm_work(smoke);
    auto cw = make_conv_work(smoke);
    auto lw = make_lif_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_active_simd(static_cast<SimdLevel>(space.value(code, 0)));
    };
    f.measure = [gw, cw, lw, min_ms] {
      return measure_span_seconds("simd", min_ms, [gw, cw, lw] {
        run_gemm(*gw);
        run_conv_sparse(*cw, 1);  // density 0.15 — the spiking regime
        run_lif(*lw);
      });
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->simd = to_string(static_cast<SimdLevel>(space.value(code, 0)));
    };
    fams.push_back(std::move(f));
  }

  // ---- gemm: register tile x K-panel ---------------------------------------
  {
    Family f;
    f.name = "gemm";
    Axis tile{"gemm_tile", {}};
    for (int i = 0; i < simd::kNumGemmTiles; ++i) tile.choices.push_back(i);
    Axis kc{"gemm_kc", {simd::kGemmKcChoices,
                        simd::kGemmKcChoices + simd::kNumGemmKcChoices}};
    f.space.axes = {tile, kc};
    f.default_code = {0, 1};  // tile {4,16}, kc 128 — the historic schedule
    auto gw = make_gemm_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_kernel_config(current_with([&](KernelConfig* c) {
        c->gemm_tile = space.value(code, 0);
        c->gemm_kc = space.value(code, 1);
      }));
    };
    f.measure = [gw, min_ms] {
      return measure_span_seconds("gemm", min_ms, [gw] { run_gemm(*gw); });
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->config.gemm_tile = space.value(code, 0);
      p->config.gemm_kc = space.value(code, 1);
    };
    fams.push_back(std::move(f));
  }

  // ---- transpose: tile edge ------------------------------------------------
  {
    Family f;
    f.name = "transpose";
    Axis tile{"transpose_tile",
              {simd::kTransposeTileChoices,
               simd::kTransposeTileChoices + simd::kNumTransposeTileChoices}};
    f.space.axes = {tile};
    f.default_code = {1};  // 32, the historic kTile
    auto tw = make_transpose_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_kernel_config(current_with([&](KernelConfig* c) {
        c->transpose_tile = space.value(code, 0);
      }));
    };
    f.measure = [tw, min_ms] {
      return measure_span_seconds("transpose", min_ms, [tw] {
        transpose_panel(tw->src.data(), tw->rows, tw->cols, tw->dst.data());
        transpose_add_panel(tw->dst.data(), tw->cols, tw->rows,
                            tw->src.data());
      });
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->config.transpose_tile = space.value(code, 0);
    };
    fams.push_back(std::move(f));
  }

  // ---- sparse: CSR-vs-dense dispatch threshold -----------------------------
  // The threshold does not change any kernel, only which path runs at a
  // given density; the objective is total time across a density sweep with
  // per-(density, path) timings measured once and cached.
  {
    Family f;
    f.name = "sparse";
    Axis thr{"sparse_threshold_pct", {5, 10, 15, 20, 25, 30, 40, 50}};
    f.space.axes = {thr};
    f.default_code = {4};  // 25%
    auto cw = make_conv_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_kernel_config(current_with([&](KernelConfig* c) {
        c->sparse_threshold =
            static_cast<float>(space.value(code, 0)) / 100.f;
      }));
    };
    f.measure = [cw, min_ms] {
      const double thr =
          static_cast<double>(kernel_config().sparse_threshold);
      double total = 0.0;
      for (std::size_t d = 0; d < cw->densities.size(); ++d) {
        const bool sparse = cw->densities[d] < thr;
        const auto key = std::make_pair(static_cast<int>(d), sparse ? 1 : 0);
        auto it = cw->cache.find(key);
        if (it == cw->cache.end()) {
          const double secs =
              sparse ? measure_span_seconds("sparse.csr", min_ms,
                                            [cw, d] { run_conv_sparse(*cw, d); })
                     : measure_span_seconds("sparse.dense", min_ms,
                                            [cw, d] { run_conv_dense(*cw, d); });
          it = cw->cache.emplace(key, secs).first;
        }
        total += it->second;
      }
      return total;
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->config.sparse_threshold =
          static_cast<float>(space.value(code, 0)) / 100.f;
    };
    fams.push_back(std::move(f));
  }

  // ---- infer: compiled-engine dispatch threshold ---------------------------
  {
    Family f;
    f.name = "infer";
    Axis thr{"infer_threshold_pct", {0, 5, 10, 15, 25, 35, 50}};
    f.space.axes = {thr};
    f.default_code = {4};  // 25%
    auto iw = make_infer_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_kernel_config(current_with([&](KernelConfig* c) {
        c->infer_threshold =
            static_cast<float>(space.value(code, 0)) / 100.f;
      }));
    };
    f.measure = [iw, min_ms] {
      infer::ExecOptions eo;
      eo.threshold = kernel_config().infer_threshold;
      infer::Engine eng(iw->plan, eo);
      Tensor out(iw->plan->output_shape);
      return measure_span_seconds("infer", min_ms, [iw, &eng, &out] {
        eng.reset();
        for (const Tensor& x : iw->xs) eng.step(x, &out);
      });
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->config.infer_threshold =
          static_cast<float>(space.value(code, 0)) / 100.f;
    };
    fams.push_back(std::move(f));
  }

  // ---- shards: data-parallel decomposition ---------------------------------
  // NOTE: different shard counts are different (each internally
  // deterministic) gradient-reduction schedules; the profile only moves
  // the DEFAULT, and explicit DataParallelConfig::shards always wins.
  {
    Family f;
    f.name = "shards";
    Axis sh{"shards", {1, 2, 4, 8}};
    f.space.axes = {sh};
    f.default_code = {3};  // 8 = kDataParallelDefaultShards
    auto dw = make_dp_work(smoke);
    Space space = f.space;
    f.apply = [space](const EncodingVec& code) {
      set_kernel_config(current_with([&](KernelConfig* c) {
        c->shards = space.value(code, 0);
      }));
    };
    f.measure = [dw, min_ms] {
      const ModelConfig& mc = dw->model;
      Network net = build_model("single_block", mc,
                                default_adjacencies("single_block", mc));
      EventEncoder enc(dw->timesteps, mc.in_channels);
      DataParallelConfig dcfg;  // shards = 0 -> resolves via kernel_config
      dcfg.replica_factory = [&mc] {
        return build_model("single_block", mc,
                           default_adjacencies("single_block", mc));
      };
      DataParallelEngine engine(net, dcfg, enc, dw->timesteps,
                                LossKind::MeanLogitCE);
      auto ps = net.parameters();
      Sgd opt(ps, 0.01f, 0.9f, 0.f);
      return measure_span_seconds("shards", min_ms, [&] {
        if (engine.enabled()) {
          engine.train_batch(dw->batch, opt, 5.f);
        } else {
          train_batch(net, enc, dw->batch, dw->timesteps, opt, 5.f,
                      LossKind::MeanLogitCE);
        }
      });
    };
    f.commit = [space](const EncodingVec& code, TuningProfile* p) {
      p->config.shards = space.value(code, 0);
    };
    fams.push_back(std::move(f));
  }

  return fams;
}

}  // namespace snnskip::tune
