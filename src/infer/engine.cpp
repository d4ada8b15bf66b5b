#include "infer/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/epilogue.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/quant_kernels.h"
#include "tensor/spike_kernels.h"
#include "tensor/spike_packed.h"
#include "telemetry/telemetry.h"
#include "util/runtime_env.h"

namespace snnskip::infer {

namespace {

// ---- precision traits ------------------------------------------------------
//
// Everything a weight-op body needs that differs between fp32 and int8
// plans, so each op kind has exactly one body (the hannk idiom: precision
// is a property of the tensors, not a fork of the ops). `panel` is the
// event kernels' weight layout (OpPlan::wt / wq8t), `rows` the dense
// GEMM's (wd / wq8d); `encode` turns a dense float operand into the
// GEMM's input element type; `widen` turns the accumulator into the float
// panel the shared epilogue reads; `dense_scale` is the epilogue input
// scale of dense dispatch (the packed route always passes 1).

/// fp32: float weights, operands and accumulators.
struct Fp32 {
  using Acc = float;
  static const float* panel(const OpPlan& op, std::size_t wi) {
    return op.wt[wi].data();
  }
  static const float* panel(const TermPlan& t, std::size_t wi) {
    return t.wt[wi].data();
  }
  static const float* rows(const OpPlan& op, std::size_t wi) {
    return op.wd[wi].data();
  }
  static constexpr auto conv_term = &spike_packed_conv2d_term;
  static constexpr auto dw_term = &spike_packed_depthwise_term;
  static const float* encode(const OpPlan&, std::int64_t, const float* x,
                             float*) {
    return x;
  }
  static void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* b, float* c) {
    snnskip::gemm_nt(m, n, k, 1.f, a, b, 0.f, c);
  }
  /// im2col + GEMM, except that few-pixel outputs (deep stages) lower to
  /// weight rows x contiguous patch rows: gemm's 16-column microkernel
  /// degrades to edge loops there. Not the training graph's code (its
  /// dense convs run the direct kernels of tensor/conv_direct.h), but each
  /// output element sums the same products in the same ascending-k order
  /// from +0, so the no-fold plan remains bitwise equal to the training
  /// eval forward.
  static void conv_gemm(const OpPlan& op, std::size_t wi, const float* img,
                        float* cols, float* out) {
    const ConvGeometry& g = op.geom;
    const std::int64_t p = g.out_h() * g.out_w();
    if (p < kGemmTileCols) {
      im2row(g, img, cols);
      gemm_nt(op.out_c, p, g.col_rows(), rows(op, wi), cols, out);
    } else {
      im2col(g, img, cols);
      gemm(op.out_c, p, g.col_rows(), 1.f, rows(op, wi), cols, 0.f, out);
    }
  }
  static float* widen(std::int64_t, float* acc) { return acc; }
  static float dense_scale(const OpPlan&) { return 1.f; }
};

/// int8: one per-output-channel quantized weight copy and int32
/// accumulators. The packed route sums binary events exactly; the dense
/// route quantizes the assembled fp32 input with the op's compile-time
/// step (lossless when every term is binary spikes and none is sunk),
/// and the epilogue multiplies that step back in.
struct Int8 {
  using Acc = std::int32_t;
  static const std::int8_t* panel(const OpPlan& op, std::size_t) {
    return op.wq8t.data();
  }
  static const std::int8_t* panel(const TermPlan& t, std::size_t) {
    return t.wq8.data();
  }
  static const std::int8_t* rows(const OpPlan& op, std::size_t) {
    return op.wq8d.data();
  }
  static constexpr auto conv_term = &spike_packed_conv2d_term_i8;
  static constexpr auto dw_term = &spike_packed_depthwise_term_i8;
  /// Quantizes `n` floats into int8 codes stored at `codes`.
  static const std::int8_t* encode(const OpPlan& op, std::int64_t n,
                                   const float* x, float* codes) {
    auto* q = reinterpret_cast<std::int8_t*>(codes);
    quantize_int8(n, x, 1.f / op.in_scale, q);
    return q;
  }
  static void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k,
                      const std::int8_t* a, const std::int8_t* b,
                      std::int32_t* c) {
    gemm_s8s32_nt(m, n, k, a, b, c);
  }
  /// im2row, then the patch rows' codes (stored past the patch matrix)
  /// against the weight rows.
  static void conv_gemm(const OpPlan& op, std::size_t wi, const float* img,
                        float* cols, std::int32_t* out) {
    const ConvGeometry& g = op.geom;
    const std::int64_t p = g.out_h() * g.out_w();
    const std::int64_t ckk = g.col_rows();
    im2row(g, img, cols);
    gemm_nt(op.out_c, p, ckk, rows(op, wi),
            encode(op, ckk * p, cols, cols + ckk * p), out);
  }
  /// Widens in place (same element size).
  static float* widen(std::int64_t n, std::int32_t* acc) {
    auto* f = reinterpret_cast<float*>(acc);
    convert_i32_to_f32(n, acc, f);
    return f;
  }
  static float dense_scale(const OpPlan& op) { return op.in_scale; }
};

/// DepthwiseConv2d's dense per-tap loop (bias and BN live in the
/// epilogue), accumulating Acc-typed products.
template <class Acc, class X, class W>
void depthwise_taps(const ConvGeometry& g, const X* in, const W* w,
                    Acc* out) {
  const std::int64_t h = g.in_h, wd = g.in_w, k = g.kernel;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  for (std::int64_t ch = 0; ch < g.in_c; ++ch) {
    const X* plane = in + ch * h * wd;
    const W* ker = w + ch * k * k;
    Acc* optr = out + ch * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        Acc acc = 0;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            if (ix < 0 || ix >= wd) continue;
            acc += static_cast<Acc>(ker[ky * k + kx]) *
                   static_cast<Acc>(plane[iy * wd + ix]);
          }
        }
        optr[oy * wo + ox] = acc;
      }
    }
  }
}

const std::int32_t* chrow_of(const TermPlan& t) {
  return t.chrow.empty() ? nullptr : t.chrow.data();
}

}  // namespace

ExecOptions ExecOptions::defaults() {
  static const float env_threshold = static_cast<float>(
      env::get_double("SNNSKIP_INFER_THRESHOLD", ExecOptions{}.threshold,
                      /*lo=*/0.0, /*hi=*/1.0));
  ExecOptions o;
  o.threshold = env_threshold;
  return o;
}

Engine::Engine(PlanPtr plan, const ExecOptions& opts)
    : plan_(std::move(plan)), opts_(opts) {
  const std::string m =
      plan_->model_name.empty() ? "model" : plan_->model_name;
  ctr_steps_ = "infer.steps." + m;
  ctr_spikes_ = "infer.spikes_popcount." + m;
  ctr_synops_ = "infer.synops." + m;
  ctr_packed_ = "infer.packed_layers." + m;
  ctr_dense_ = "infer.dense_layers." + m;
  farena_.assign(static_cast<std::size_t>(plan_->float_arena), 0.f);
  warena_.assign(static_cast<std::size_t>(plan_->word_arena), 0u);
  sarena_.assign(static_cast<std::size_t>(plan_->state_arena), 0.f);
  scratch_.assign(static_cast<std::size_t>(plan_->scratch_floats), 0.f);
  popcnt_.assign(plan_->values.size(), -1);
}

Engine::Engine(PlanPtr plan)
    : Engine(std::move(plan), ExecOptions::defaults()) {}

float* Engine::dense(int v) {
  return farena_.data() + val(v).dense_off;
}

std::uint64_t* Engine::words(int v) {
  return warena_.data() + val(v).packed_off;
}

void Engine::reset() {
  std::fill(sarena_.begin(), sarena_.end(), 0.f);
  t_ = 0;
}

Tensor Engine::step(const Tensor& x) {
  Tensor out(plan_->output_shape);
  step(x, &out);
  return out;
}

void Engine::step(const Tensor& x, Tensor* out) {
  SNNSKIP_SPAN("infer.step", plan_->model_name);
  if (x.shape() != plan_->input_shape) {
    throw std::invalid_argument(
        "infer::Engine::step: input shape does not match the compiled plan");
  }
  const ExecStats before = stats_;

  write_input(x);
  for (std::size_t i = 0; i < plan_->ops.size(); ++i) {
    cur_op_ = i;  // calibration-sink slot for this op
    exec_op(plan_->ops[i]);
  }

  const ValuePlan& ov = val(plan_->output_value);
  if (out->shape() != ov.shape) *out = Tensor(ov.shape);
  std::memcpy(out->data(), dense(plan_->output_value),
              static_cast<std::size_t>(ov.floats) * sizeof(float));

  ++t_;
  ++stats_.steps;
  // Once per step, not per op: each count takes the telemetry lock, which
  // concurrent traced engines otherwise contend on every op.
  auto count = [](const char* total, const std::string& model, double n) {
    Telemetry::count(total, n);
    Telemetry::count(model.c_str(), n);
  };
  count("infer.steps", ctr_steps_, 1.0);
  count("infer.spikes_popcount", ctr_spikes_,
        static_cast<double>(stats_.spikes - before.spikes));
  count("infer.synops", ctr_synops_,
        static_cast<double>(stats_.synops - before.synops));
  count("infer.packed_layers", ctr_packed_,
        static_cast<double>(stats_.packed_dispatches -
                            before.packed_dispatches));
  count("infer.dense_layers", ctr_dense_,
        static_cast<double>(stats_.dense_dispatches -
                            before.dense_dispatches));
}

void Engine::write_input(const Tensor& x) {
  const int iv = plan_->input_value;
  const ValuePlan& v = val(iv);
  std::memcpy(dense(iv), x.data(),
              static_cast<std::size_t>(v.floats) * sizeof(float));
  // -1 for a non-binary input (e.g. raw analog frames): dense mirror
  // only, so every op reading it dispatches dense.
  popcount(iv) = spike_pack(x.data(), v.floats, words(iv));
  if (popcount(iv) < 0 && plan_->precision == Precision::Int8) {
    // Int8 plans fix the stem's quantization step at exactly 1.0 on the
    // promise that the network input is a binary spike train (the repo's
    // encoders all emit one). Quantizing an analog frame with step 1.0
    // would round it to small integers — reject loudly instead of
    // silently destroying the input.
    throw std::invalid_argument(
        "infer::Engine::step: int8 plans require binary (0/1) spike "
        "inputs; encode analog frames before stepping");
  }
}

void Engine::record_amax(const float* x, std::int64_t n) {
  if (calib_ == nullptr) return;
  float m = (*calib_)[cur_op_];
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  (*calib_)[cur_op_] = m;
}

bool Engine::packed_ok(const OpPlan& op) {
  std::int64_t nnz = 0, elems = 0;
  for (const TermPlan& t : op.terms) {
    if (!t.spiking || popcount(t.value) < 0) return false;
    nnz += popcount(t.value);
    elems += val(t.value).floats;
  }
  return elems > 0 && static_cast<double>(nnz) / static_cast<double>(elems) <
                          static_cast<double>(opts_.threshold);
}

void Engine::count_dispatch(bool packed) {
  ++(packed ? stats_.packed_dispatches : stats_.dense_dispatches);
}

void Engine::assemble(const OpPlan& op, float* dst, float* patch) {
  const std::int64_t hw = op.geom.in_h * op.geom.in_w;
  for (const TermPlan& t : op.terms) {
    if (t.sunk) continue;  // own geometry; re-materialized below
    const float* src = dense(t.value);
    float* d = dst + t.offset * hw;
    if (t.add_join) {
      const std::int64_t n = t.channels * hw;
      for (std::int64_t i = 0; i < n; ++i) d[i] += src[i];
    } else if (!t.gather.empty()) {
      for (std::size_t k = 0; k < t.gather.size(); ++k) {
        std::memcpy(d + static_cast<std::int64_t>(k) * hw,
                    src + t.gather[k] * hw,
                    static_cast<std::size_t>(hw) * sizeof(float));
      }
    } else {
      std::memcpy(d, src,
                  static_cast<std::size_t>(t.channels * hw) * sizeof(float));
    }
  }
  // Dense dispatch undoes the sinking: run the raw 1x1 projection and ADD
  // it into the assembled input — the training graph's exact compute
  // shape (one GEMM over the sum).
  for (const TermPlan& t : op.terms) {
    if (!t.sunk) continue;
    const float* src = dense(t.value);
    const std::int64_t pp = t.pgeom.out_h() * t.pgeom.out_w();
    im2col(t.pgeom, src, patch);
    gemm(t.proj_c, pp, t.pgeom.in_c, 1.f, t.pw.data(), patch, 1.f,
         dst + t.offset * pp);
    stats_.dense_macs += t.proj_c * t.pgeom.in_c * pp;
  }
  // Post-assembly, post-projection: exactly what the int8 dense route
  // quantizes — the range the calibration sweep needs.
  record_amax(dst, op.geom.in_c * hw);
}

// Scratch layout of the weight ops: the accumulator first, then what the
// dispatch needs past it (op_scratch in the compiler sizes each region).

template <class Acc>
void Engine::lif_panel_epilogue(const OpPlan& op, const Acc* acc) {
  const ValuePlan& ov = val(op.out);
  const std::size_t bi = static_cast<std::size_t>(op.copy_index(t_));
  std::uint64_t* wbits = words(op.out);
  std::memset(wbits, 0,
              static_cast<std::size_t>(ov.words) * sizeof(std::uint64_t));
  const std::int64_t spk = lif_epilogue_panel(
      ov.floats / op.out_c, op.out_c, acc,
      op.scale.empty() ? nullptr : op.scale[bi].data(), op.bias[bi].data(),
      op.beta, op.theta, sarena_.data() + op.state_off, dense(op.out), wbits);
  popcount(op.out) = spk;
  stats_.spikes += spk;
}

template <class P>
void Engine::exec_conv(const OpPlan& op) {
  using Acc = typename P::Acc;
  const ConvGeometry& g = op.geom;
  const std::int64_t p = g.out_h() * g.out_w();
  const std::int64_t o_c = op.out_c;
  const std::size_t wi = op.weight_copy(t_);
  Acc* acc = reinterpret_cast<Acc*>(scratch_.data());
  // Packed: the panel's (O, P) transpose, unless the LIF panel epilogue
  // reads the panel itself. Dense: the assembled input, then the patch
  // matrix.
  float* rest = scratch_.data() + o_c * p;
  float* cols = rest + g.in_c * g.in_h * g.in_w;
  const bool packed = packed_ok(op);
  if (packed) {
    // (P, O) panel: every term accumulates into it.
    std::memset(acc, 0, static_cast<std::size_t>(p * o_c) * sizeof(Acc));
    for (const TermPlan& t : op.terms) {
      const std::int64_t src_c = val(t.value).shape[1];
      const std::uint64_t* w = words(t.value);
      if (t.sunk) {
        // Composite kernel over the projection's own spiking source, onto
        // the same output grid.
        stats_.synops += P::conv_term(t.geom, t.taps.data(), src_c, w,
                                      nullptr, P::panel(t, wi), o_c, acc);
      } else {
        stats_.synops += P::conv_term(g, op.taps.data(), src_c, w,
                                      chrow_of(t), P::panel(op, wi), o_c, acc);
      }
    }
    if (op.epi == Epi::Lif && op.refrac_off < 0) {
      lif_panel_epilogue(op, acc);
    } else {
      transpose_panel(P::widen(p * o_c, acc), p, o_c, rest);
      epilogue(op, rest);
    }
  } else {
    assemble(op, rest, cols);
    P::conv_gemm(op, wi, rest, cols, acc);  // (O, P)
    epilogue(op, P::widen(o_c * p, acc), P::dense_scale(op));
    stats_.dense_macs += op.macs;
  }
  count_dispatch(packed);
}

template <class P>
void Engine::exec_dwconv(const OpPlan& op) {
  using Acc = typename P::Acc;
  const ConvGeometry& g = op.geom;
  const std::int64_t p = g.out_h() * g.out_w();
  const std::int64_t in_f = g.in_c * g.in_h * g.in_w;
  const auto* bank = P::panel(op, op.weight_copy(t_));  // (C, K, K)
  Acc* acc = reinterpret_cast<Acc*>(scratch_.data());    // (C, Ho, Wo)
  float* assembled = scratch_.data() + g.in_c * p;
  const bool packed = packed_ok(op);
  if (packed) {
    std::memset(acc, 0, static_cast<std::size_t>(g.in_c * p) * sizeof(Acc));
    for (const TermPlan& t : op.terms) {
      stats_.synops += P::dw_term(g, op.taps.data(), val(t.value).shape[1],
                                  words(t.value), chrow_of(t), bank, acc);
    }
    epilogue(op, P::widen(g.in_c * p, acc));
  } else {
    assemble(op, assembled, /*patch=*/nullptr);
    depthwise_taps(g, P::encode(op, in_f, assembled, assembled + in_f), bank,
                   acc);
    epilogue(op, P::widen(g.in_c * p, acc), P::dense_scale(op));
    stats_.dense_macs += op.macs;
  }
  count_dispatch(packed);
}

template <class P>
void Engine::exec_linear(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const std::int64_t in_f = t.channels;
  const std::int64_t o_f = op.out_c;
  const float* x = dense(t.value);
  record_amax(x, in_f);
  // out(1, O) = x(1, I) * W(O, I)^T — Linear::forward's dense GEMM; the
  // bias moves to the epilogue. Scratch: the output row, then the codes.
  auto* out = reinterpret_cast<typename P::Acc*>(scratch_.data());
  P::gemm_nt(1, o_f, in_f, P::encode(op, in_f, x, scratch_.data() + o_f),
             P::rows(op, 0), out);
  epilogue(op, P::widen(o_f, out), P::dense_scale(op));
  stats_.dense_macs += op.macs;
  count_dispatch(/*packed=*/false);
}

void Engine::exec_op(const OpPlan& op) {
  SNNSKIP_SPAN_AGG("infer.op", op.name);
  const bool i8 = plan_->precision == Precision::Int8;
  switch (op.kind) {
    case OpKind::Conv:
      i8 ? exec_conv<Int8>(op) : exec_conv<Fp32>(op);
      break;
    case OpKind::DwConv:
      i8 ? exec_dwconv<Int8>(op) : exec_dwconv<Fp32>(op);
      break;
    case OpKind::Linear:
      i8 ? exec_linear<Int8>(op) : exec_linear<Fp32>(op);
      break;
    case OpKind::DscGather: exec_dsc_gather(op); break;
    case OpKind::AvgPool: exec_avgpool(op); break;
    case OpKind::GlobalAvgPool: exec_gap(op); break;
    case OpKind::Neuron:
    case OpKind::Relu: exec_neuron(op); break;
    case OpKind::Copy: exec_copy(op); break;
  }
}

void Engine::exec_dsc_gather(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const ValuePlan& ov = val(op.out);
  const std::int64_t h = sv.shape[2], w = sv.shape[3];
  const float* src = dense(t.value);
  float* g = scratch_.data();  // (channels, H, W) gathered planes
  for (std::size_t kk = 0; kk < t.gather.size(); ++kk) {
    std::memcpy(g + static_cast<std::int64_t>(kk) * h * w,
                src + t.gather[kk] * h * w,
                static_cast<std::size_t>(h * w) * sizeof(float));
  }
  // The ceil-mode output size was fixed at compile time.
  avg_pool_planes(g, t.channels, h, w, op.pool_kernel, op.pool_stride,
                  ov.shape[2], ov.shape[3], dense(op.out));
}

void Engine::exec_avgpool(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const ValuePlan& ov = val(op.out);
  avg_pool_planes(dense(t.value), sv.shape[1], sv.shape[2], sv.shape[3],
                  op.pool_kernel, op.pool_stride, ov.shape[2], ov.shape[3],
                  dense(op.out));
}

void Engine::exec_gap(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const std::int64_t c = sv.shape[1];
  const std::int64_t plane = sv.shape[2] * sv.shape[3];
  const float* src = dense(t.value);
  float* dst = dense(op.out);
  const float inv = 1.f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < c; ++i) {
    const float* pl = src + i * plane;
    float acc = 0.f;
    for (std::int64_t j = 0; j < plane; ++j) acc += pl[j];
    dst[i] = acc * inv;
  }
}

void Engine::exec_neuron(const OpPlan& op) {
  epilogue(op, dense(op.terms.front().value));
}

void Engine::exec_copy(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  std::memcpy(dense(op.out), dense(t.value),
              static_cast<std::size_t>(sv.floats) * sizeof(float));
  const ValuePlan& ov = val(op.out);
  if (ov.spiking && sv.spiking) {
    std::memcpy(words(op.out), words(t.value),
                static_cast<std::size_t>(sv.words) * sizeof(std::uint64_t));
    popcount(op.out) = popcount(t.value);
  }
}

void Engine::epilogue(const OpPlan& op, const float* acc, float ascale) {
  const ValuePlan& ov = val(op.out);
  const std::int64_t o_c = op.out_c;
  const std::int64_t p = ov.floats / o_c;
  float* dst = dense(op.out);
  const std::size_t bi = static_cast<std::size_t>(op.copy_index(t_));
  const float* bias = op.bias[bi].data();
  const float* sc = op.scale.empty() ? nullptr : op.scale[bi].data();

  std::uint64_t* wbits = nullptr;
  if (ov.spiking) {
    wbits = words(op.out);
    std::memset(wbits, 0,
                static_cast<std::size_t>(ov.words) * sizeof(std::uint64_t));
  }

  if (op.epi == Epi::Lif) {
    float* m = sarena_.data() + op.state_off;
    float* rc =
        op.refrac_off >= 0 ? sarena_.data() + op.refrac_off : nullptr;
    std::int64_t spk = 0;
    if (rc == nullptr) {
      // No refractory gate: the fused SIMD-dispatched row (bit-identical
      // to the loop below at every SIMD level) handles integrate +
      // threshold + soft reset + spike-bit packing in one pass.
      for (std::int64_t o = 0; o < o_c; ++o) {
        spk += lif_epilogue_row(p, acc + o * p, sc != nullptr ? 1 : 0,
                                sc != nullptr ? ascale * sc[o] : 0.f, bias[o],
                                op.beta, op.theta, m + o * p, dst + o * p,
                                wbits, /*bit0=*/o * p);
      }
    } else {
      for (std::int64_t o = 0; o < o_c; ++o) {
        const float b = bias[o];
        for (std::int64_t j = 0; j < p; ++j) {
          const std::int64_t idx = o * p + j;
          const float a = acc[idx];
          const float in = (sc != nullptr ? (ascale * sc[o]) * a : a) + b;
          // Lif::forward's exact update: leaky integrate, refractory gate,
          // threshold compare, soft reset.
          const float vt = op.beta * m[idx] + in;
          const float dist = vt - op.theta;
          bool live = true;
          if (rc[idx] > 0.f) {
            live = false;
            rc[idx] -= 1.f;
          }
          if (live && dist >= 0.f) {
            dst[idx] = 1.f;
            m[idx] = vt - op.theta;
            rc[idx] = static_cast<float>(op.refractory);
            wbits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            ++spk;
          } else {
            dst[idx] = 0.f;
            m[idx] = vt;
          }
        }
      }
    }
    popcount(op.out) = spk;
    stats_.spikes += spk;
    return;
  }

  for (std::int64_t o = 0; o < o_c; ++o) {
    affine_epilogue_row(p, acc + o * p, sc != nullptr ? 1 : 0,
                        sc != nullptr ? ascale * sc[o] : 0.f, bias[o],
                        op.epi == Epi::Relu ? 1 : 0, dst + o * p);
  }
}

}  // namespace snnskip::infer
