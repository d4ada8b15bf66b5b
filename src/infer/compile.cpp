#include "infer/compile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/block.h"
#include "infer/quant.h"
#include "nn/activations.h"
#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "nn/depthwise_conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "snn/lif.h"
#include "snn/plif.h"
#include "telemetry/telemetry.h"
#include "tensor/spike_packed.h"

namespace snnskip::infer {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("infer::compile: " + what);
}

/// Per-channel eval-mode BN fold — the EXACT expressions BatchNormTT's
/// eval path uses, so the no-fold epilogue reproduces it bit-for-bit.
struct BnFold {
  std::vector<float> scale, shift;
};

BnFold bn_fold(const BatchNormTT& bn, std::int64_t t) {
  const std::int64_t c = bn.channels();
  BnFold f;
  f.scale.resize(static_cast<std::size_t>(c));
  f.shift.resize(static_cast<std::size_t>(c));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const std::size_t ci = static_cast<std::size_t>(ch);
    const float mean = bn.running_mean(t)[ci];
    const float inv_std = 1.f / std::sqrt(bn.running_var(t)[ci] + bn.eps());
    const float g = bn.gamma(t)[ci];
    f.scale[ci] = g * inv_std;
    f.shift[ci] = bn.shift_beta(t)[ci] - g * mean * inv_std;
  }
  return f;
}

/// (O, CKK) row-major -> ((c,ky,kx), o) transposed panel.
template <class T>
std::vector<T> transpose_rows(const T* w, std::int64_t o_c, std::int64_t ckk) {
  std::vector<T> wt(static_cast<std::size_t>(o_c * ckk));
  for (std::int64_t o = 0; o < o_c; ++o) {
    for (std::int64_t r = 0; r < ckk; ++r) {
      wt[static_cast<std::size_t>(r * o_c + o)] =
          w[static_cast<std::size_t>(o * ckk + r)];
    }
  }
  return wt;
}

/// Row o of (rows, cols) row-major `w` scaled by s[o].
std::vector<float> scale_rows(const std::vector<float>& w, std::int64_t cols,
                              const std::vector<float>& s) {
  std::vector<float> out(w.size());
  for (std::size_t o = 0; o < s.size(); ++o) {
    const std::int64_t base = static_cast<std::int64_t>(o) * cols;
    for (std::int64_t r = 0; r < cols; ++r) {
      out[static_cast<std::size_t>(base + r)] =
          s[o] * w[static_cast<std::size_t>(base + r)];
    }
  }
  return out;
}

// ---- int8 weight quantization (ISSUE 10) ----------------------------------

/// The kernels' exact rounding (quant_kernels_impl.h): round-half-up via
/// floor, clamped to the symmetric range. Plans quantize with this scalar
/// sequence directly so the compiled weights never depend on SNNSKIP_SIMD.
std::int8_t quantize_one_i8(float x, float inv) {
  std::int32_t q = static_cast<std::int32_t>(std::floor(x * inv + 0.5f));
  if (q > 127) q = 127;
  if (q < -127) q = -127;
  return static_cast<std::int8_t>(q);
}

/// Quantize (rows, cols) row-major with per-row scales S (row o divided
/// by S[o]).
std::vector<std::int8_t> quantize_rows_i8(const float* w, std::int64_t rows,
                                          std::int64_t cols,
                                          const std::vector<float>& S) {
  std::vector<std::int8_t> q(static_cast<std::size_t>(rows * cols));
  for (std::int64_t o = 0; o < rows; ++o) {
    const float inv = 1.f / S[static_cast<std::size_t>(o)];
    const float* src = w + o * cols;
    std::int8_t* dst = q.data() + o * cols;
    for (std::int64_t r = 0; r < cols; ++r) {
      dst[r] = quantize_one_i8(src[r], inv);
    }
  }
  return q;
}

float row_absmax(const float* row, std::int64_t n) {
  float m = 0.f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(row[i]));
  return m;
}

/// Builds op weight copies. `bn == nullptr` means nothing to fold (proj
/// convs, the head linear): one copy, bias = the layer's own bias.
struct WeightBuild {
  const float* w = nullptr;       ///< (O, CKK) for conv; (C, KK) depthwise;
                                  ///< (O, I) linear
  const float* layer_bias = nullptr;  ///< may be null
  std::int64_t rows = 0;          ///< O (conv/linear) or C (depthwise)
  std::int64_t cols = 0;          ///< CKK / KK / I
  /// Raw (O, C'K'K') composite kernels of the op's sunk terms, in term
  /// order (build_sunk_term). They share the op's BN fold and, in int8
  /// plans, its per-channel scales.
  std::vector<std::vector<float>> sunk;
};

/// Files one fp32 weight copy (row-major `rows` x `cols`) under the
/// layouts the engine reads: Conv keeps the event kernels' transposed
/// panel in `wt` and the GEMM rows in `wd`, DwConv its bank in `wt`,
/// Linear its rows in `wd`. build_weights_i8 files wq8t/wq8d alike.
void add_copy(OpPlan& op, std::vector<float> w, const WeightBuild& b) {
  if (op.kind == OpKind::Conv) {
    op.wt.push_back(transpose_rows(w.data(), b.rows, b.cols));
  }
  (op.kind == OpKind::DwConv ? op.wt : op.wd).push_back(std::move(w));
}

void build_weights(OpPlan& op, const WeightBuild& b, const BatchNormTT* bn,
                   bool fold_bn) {
  const std::int64_t copies = (bn != nullptr) ? bn->max_timesteps() : 1;
  const std::size_t n = static_cast<std::size_t>(b.rows * b.cols);

  auto raw = std::vector<float>(b.w, b.w + n);
  auto raw_bias = std::vector<float>(static_cast<std::size_t>(b.rows), 0.f);
  if (b.layer_bias != nullptr) {
    raw_bias.assign(b.layer_bias, b.layer_bias + b.rows);
  }

  if (bn == nullptr || !fold_bn) {
    // Single weight copy. With a BN present, scale/shift go to the
    // epilogue (one (scale, bias) pair per timestep); the layer's own
    // bias, if any, is pre-scaled into the shift (conv bias never
    // coexists with BN in this repo's models). Sunk terms only exist in
    // folded mode.
    add_copy(op, std::move(raw), b);
    if (bn == nullptr) {
      op.bias.push_back(raw_bias);
    } else {
      for (std::int64_t t = 0; t < copies; ++t) {
        BnFold f = bn_fold(*bn, t);
        std::vector<float> bias(f.shift);
        for (std::int64_t o = 0; o < b.rows; ++o) {
          bias[static_cast<std::size_t>(o)] +=
              f.scale[static_cast<std::size_t>(o)] *
              raw_bias[static_cast<std::size_t>(o)];
        }
        op.bias.push_back(std::move(bias));
        op.scale.push_back(std::move(f.scale));
      }
    }
    return;
  }

  // Folded mode: scale each output row of the weights — the op's own and
  // every sunk term's composite — one copy per timestep. Convs keep the
  // folded (O, CKK) rows next to the transposed panel so dense dispatch
  // runs the exact row-major GEMM the training graph runs (gemm_tn on
  // the transposed panel is several times slower at the small spatial
  // sizes where dense dispatch actually happens).
  for (std::int64_t t = 0; t < copies; ++t) {
    BnFold f = bn_fold(*bn, t);
    add_copy(op, scale_rows(raw, b.cols, f.scale), b);
    std::size_t k = 0;
    for (TermPlan& st : op.terms) {
      if (!st.sunk) continue;
      st.wt.push_back(transpose_rows(
          scale_rows(b.sunk[k++], st.geom.col_rows(), f.scale).data(),
          b.rows, st.geom.col_rows()));
    }
    std::vector<float> bias(f.shift);
    for (std::int64_t o = 0; o < b.rows; ++o) {
      bias[static_cast<std::size_t>(o)] +=
          f.scale[static_cast<std::size_t>(o)] *
          raw_bias[static_cast<std::size_t>(o)];
    }
    op.bias.push_back(std::move(bias));
  }
}

/// Int8 weight build: quantize the RAW weights once (per-output-channel
/// symmetric, S[o] = absmax / 127) and absorb the BNTT fold into the
/// epilogue's per-timestep dequant scale (scale_t[o] = S[o] *
/// bn_scale_t[o]; bias_t identical to the no-fold builder). The scale
/// panel is SHARED with every sunk ASC term's composite rows — both
/// accumulate into the same int32 panel on the packed path, so one
/// uniform per-channel dequant must cover them; S[o] therefore takes the
/// absmax over the op's own row o AND each sunk term's composite row o,
/// whose quantized transposed panel lands in t.wq8.
void build_weights_i8(OpPlan& op, const WeightBuild& b,
                      const BatchNormTT* bn) {
  const std::int64_t copies = (bn != nullptr) ? bn->max_timesteps() : 1;
  const std::size_t n = static_cast<std::size_t>(b.rows * b.cols);

  auto raw = std::vector<float>(b.w, b.w + n);
  auto raw_bias = std::vector<float>(static_cast<std::size_t>(b.rows), 0.f);
  if (b.layer_bias != nullptr) {
    raw_bias.assign(b.layer_bias, b.layer_bias + b.rows);
  }

  std::vector<float> S(static_cast<std::size_t>(b.rows), 1.f);
  for (std::int64_t o = 0; o < b.rows; ++o) {
    float amax = row_absmax(raw.data() + o * b.cols, b.cols);
    for (const std::vector<float>& base : b.sunk) {
      const std::int64_t tckk =
          static_cast<std::int64_t>(base.size()) / b.rows;
      amax = std::max(amax, row_absmax(base.data() + o * tckk, tckk));
    }
    if (amax > 0.f) S[static_cast<std::size_t>(o)] = amax / 127.f;
  }

  auto q = quantize_rows_i8(raw.data(), b.rows, b.cols, S);
  if (op.kind == OpKind::Conv) {
    op.wq8t = transpose_rows(q.data(), b.rows, b.cols);
  }
  (op.kind == OpKind::DwConv ? op.wq8t : op.wq8d) = std::move(q);

  for (std::int64_t t = 0; t < copies; ++t) {
    std::vector<float> sc(S);
    std::vector<float> bias(raw_bias);
    if (bn != nullptr) {
      BnFold f = bn_fold(*bn, t);
      for (std::int64_t o = 0; o < b.rows; ++o) {
        const std::size_t oi = static_cast<std::size_t>(o);
        sc[oi] = f.scale[oi] * S[oi];
        bias[oi] = f.shift[oi] + f.scale[oi] * raw_bias[oi];
      }
    }
    op.scale.push_back(std::move(sc));
    op.bias.push_back(std::move(bias));
  }

  std::size_t k = 0;
  for (TermPlan& t : op.terms) {
    if (!t.sunk) continue;
    const std::int64_t tckk = t.geom.col_rows();
    auto tq = quantize_rows_i8(b.sunk[k++].data(), b.rows, tckk, S);
    t.wq8 = transpose_rows(tq.data(), b.rows, tckk);
  }
}

/// Neuron layer -> fused epilogue parameters. Returns Epi::None for
/// Identity, Epi::Relu for ReLU; fills beta/theta/refractory for LIF/PLIF.
Epi classify_neuron(Layer* neuron, OpPlan& op) {
  if (neuron == nullptr || dynamic_cast<Identity*>(neuron) != nullptr) {
    return Epi::None;
  }
  if (dynamic_cast<ReLU*>(neuron) != nullptr) return Epi::Relu;
  if (auto* lif = dynamic_cast<Lif*>(neuron)) {
    op.beta = lif->config().beta;
    op.theta = lif->config().threshold;
    op.refractory = lif->config().refractory;
    return Epi::Lif;
  }
  if (auto* plif = dynamic_cast<Plif*>(neuron)) {
    op.beta = plif->beta();  // frozen sigmoid(w) at compile time
    op.theta = plif->config().threshold;
    op.refractory = plif->config().refractory;
    return Epi::Lif;
  }
  fail("unsupported neuron layer '" + neuron->name() + "'");
}

class Compiler {
 public:
  Compiler(Network& net, const Shape& input_shape, const CompileOptions& opts)
      : net_(net), opts_(opts) {
    if (input_shape.ndim() != 4 || input_shape[0] != 1) {
      fail("input shape must be (1, C, H, W): a plan runs one request");
    }
    if (opts.precision == Precision::Int8 && !opts.fold_bn) {
      fail("int8 precision requires fold_bn (the no-fold bitwise mode is "
           "fp32-only)");
    }
    plan_.input_shape = input_shape;
    plan_.bn_folded = opts.fold_bn;
    plan_.precision = opts.precision;
  }

  Plan run() {
    SNNSKIP_SPAN("infer.compile", "plan");
    // The network input is value 0; whether it actually carries binary
    // spikes is detected when Engine::step packs it.
    plan_.input_value =
        new_value(plan_.input_shape, /*spiking=*/true);
    int cur = plan_.input_value;

    const auto& stages = net_.stages();
    for (std::size_t i = 0; i < stages.size(); ++i) {
      Layer* layer = stages[i].get();
      if (auto* blk = dynamic_cast<Block*>(layer)) {
        cur = lower_block(*blk, cur);
      } else if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
        auto* bn = peek<BatchNormTT>(stages, i + 1);
        Layer* neuron = bn != nullptr ? peek_neuron(stages, i + 2)
                                      : peek_neuron(stages, i + 1);
        cur = lower_conv(*conv, bn, neuron, cur, conv->name());
        i += (bn != nullptr ? 1 : 0) + (neuron != nullptr ? 1 : 0);
      } else if (auto* lin = dynamic_cast<Linear*>(layer)) {
        Layer* neuron = peek_neuron(stages, i + 1);
        cur = lower_linear(*lin, neuron, cur);
        i += neuron != nullptr ? 1 : 0;
      } else if (auto* gap = dynamic_cast<GlobalAvgPool2d*>(layer)) {
        cur = lower_simple(OpKind::GlobalAvgPool, gap->name(),
                           gap->output_shape(shape(cur)), cur);
      } else if (auto* pool = dynamic_cast<AvgPool2d*>(layer)) {
        OpPlan op;
        op.pool_kernel = pool->kernel();
        op.pool_stride = pool->stride();
        op.pool_ceil = pool->ceil_mode();
        cur = push_simple(std::move(op), OpKind::AvgPool, pool->name(),
                          pool->output_shape(shape(cur)), cur);
      } else if (dynamic_cast<Lif*>(layer) != nullptr ||
                 dynamic_cast<Plif*>(layer) != nullptr) {
        cur = lower_neuron(layer, cur);
      } else if (dynamic_cast<Identity*>(layer) != nullptr) {
        continue;
      } else {
        fail("unsupported stage '" + layer->name() +
             "' (no inference lowering)");
      }
    }

    plan_.output_value = cur;
    plan_.output_shape = shape(cur);
    finalize();
    return std::move(plan_);
  }

 private:
  template <typename T>
  static T* peek(const std::vector<LayerPtr>& stages, std::size_t i) {
    return i < stages.size() ? dynamic_cast<T*>(stages[i].get()) : nullptr;
  }

  static Layer* peek_neuron(const std::vector<LayerPtr>& stages,
                            std::size_t i) {
    if (i >= stages.size()) return nullptr;
    Layer* l = stages[i].get();
    if (dynamic_cast<Lif*>(l) != nullptr || dynamic_cast<Plif*>(l) != nullptr ||
        dynamic_cast<ReLU*>(l) != nullptr ||
        dynamic_cast<Identity*>(l) != nullptr) {
      return l;
    }
    return nullptr;
  }

  const Shape& shape(int v) const {
    return plan_.values[static_cast<std::size_t>(v)].shape;
  }

  int new_value(const Shape& s, bool spiking) {
    ValuePlan v;
    v.shape = s;
    v.floats = s.numel();
    v.spiking = spiking;
    if (spiking) v.words = packed_words(s.numel());
    plan_.values.push_back(std::move(v));
    return static_cast<int>(plan_.values.size()) - 1;
  }

  void use(int v) {
    auto& val = plan_.values[static_cast<std::size_t>(v)];
    val.last_use = std::max(val.last_use,
                            static_cast<int>(plan_.ops.size()));
  }

  int emit(OpPlan op, const Shape& out_shape, bool out_spiking) {
    for (const TermPlan& t : op.terms) use(t.value);
    const int out = new_value(out_shape, out_spiking);
    op.out = out;
    plan_.values[static_cast<std::size_t>(out)].def =
        static_cast<int>(plan_.ops.size());
    if (op.epi == Epi::Lif) {
      op.state_off = state_floats_;
      state_floats_ += out_shape.numel();
      if (op.refractory > 0) {
        op.refrac_off = state_floats_;
        state_floats_ += out_shape.numel();
      }
    }
    plan_.ops.push_back(std::move(op));
    return out;
  }

  int lower_simple(OpKind kind, const std::string& name,
                   const Shape& out_shape, int in) {
    return push_simple(OpPlan{}, kind, name, out_shape, in);
  }

  int push_simple(OpPlan op, OpKind kind, const std::string& name,
                  const Shape& out_shape, int in) {
    op.kind = kind;
    op.name = name;
    TermPlan t;
    t.value = in;
    t.channels = shape(in).ndim() >= 2 ? shape(in)[1] : 0;
    op.terms.push_back(std::move(t));
    return emit(std::move(op), out_shape, /*out_spiking=*/false);
  }

  bool int8() const { return opts_.precision == Precision::Int8; }

  /// Weight build dispatch on the plan precision. Int8 additionally
  /// fixes the op's input quantization step: exactly 1.0 when every term
  /// is binary spikes and none is sunk (assembled values are small
  /// integers — quantization is lossless and the dense int8 dispatch is
  /// bitwise-equal to the packed one), else the calibrated absmax / 127
  /// (sunk terms rematerialize an analog projection on dense dispatch).
  /// Must run after op.terms is complete.
  void build_op_weights(OpPlan& op, const WeightBuild& b,
                        const BatchNormTT* bn) {
    if (!int8()) {
      build_weights(op, b, bn, opts_.fold_bn);
      return;
    }
    build_weights_i8(op, b, bn);
    bool exact = true;
    for (const TermPlan& t : op.terms) {
      if (!t.spiking || t.sunk) exact = false;
    }
    if (exact) {
      op.in_scale = 1.f;
      return;
    }
    float amax =
        opts_.quant != nullptr ? opts_.quant->amax_for(op.name, 1.f) : 1.f;
    if (!(amax > 0.f)) amax = 1.f;
    op.in_scale = amax / 127.f;
  }

  /// Top-level conv (+BN +neuron) — also used for skip projections
  /// (bn == nullptr, neuron == nullptr).
  int lower_conv(Conv2d& conv, BatchNormTT* bn, Layer* neuron, int in,
                 const std::string& name) {
    OpPlan op;
    op.kind = OpKind::Conv;
    op.name = name;
    op.epi = classify_neuron(neuron, op);
    const Shape s = shape(in);  // copy: emit() reallocates the value table
    op.geom = ConvGeometry{conv.in_channels(), s[2], s[3], conv.kernel(),
                           conv.stride(), conv.pad()};
    op.taps = tap_table(op.geom);
    op.out_c = conv.out_channels();
    op.macs = conv.macs(s);
    TermPlan t;
    t.value = in;
    t.channels = conv.in_channels();
    t.spiking = plan_.values[static_cast<std::size_t>(in)].spiking;
    op.terms.push_back(std::move(t));
    WeightBuild b;
    b.w = conv.weight().value.data();
    b.layer_bias = conv.has_bias() ? conv.bias().value.data() : nullptr;
    b.rows = conv.out_channels();
    b.cols = conv.in_channels() * conv.kernel() * conv.kernel();
    build_op_weights(op, b, bn);
    const bool spiking_out = op.epi == Epi::Lif;
    const Shape out_shape = conv.output_shape(s);
    return emit(std::move(op), out_shape, spiking_out);
  }

  int lower_linear(Linear& lin, Layer* neuron, int in) {
    OpPlan op;
    op.kind = OpKind::Linear;
    op.name = lin.name();
    op.epi = classify_neuron(neuron, op);
    const Shape s = shape(in);
    if (s.ndim() != 2) fail("linear stage expects a 2-D (N, F) input");
    op.out_c = lin.out_features();
    op.macs = lin.macs(s);
    TermPlan t;
    t.value = in;
    t.channels = lin.in_features();
    op.terms.push_back(std::move(t));
    WeightBuild b;
    b.w = lin.weight().value.data();
    b.layer_bias = lin.has_bias() ? lin.bias().value.data() : nullptr;
    b.rows = lin.out_features();
    b.cols = lin.in_features();
    build_op_weights(op, b, nullptr);
    const bool spiking_out = op.epi == Epi::Lif;
    const Shape out_shape = lin.output_shape(s);
    return emit(std::move(op), out_shape, spiking_out);
  }

  int lower_neuron(Layer* neuron, int in) {
    OpPlan op;
    op.kind = OpKind::Neuron;
    op.name = neuron->name();
    op.epi = classify_neuron(neuron, op);
    const Shape s = shape(in);
    op.out_c = s.numel();
    op.bias.emplace_back(static_cast<std::size_t>(op.out_c), 0.f);
    TermPlan t;
    t.value = in;
    t.channels = s.ndim() >= 2 ? s[1] : 0;
    op.terms.push_back(std::move(t));
    const bool spiking_out = op.epi == Epi::Lif;
    return emit(std::move(op), s, spiking_out);
  }

  /// Compose a 1x1 no-bias ASC projection with the consumer conv's
  /// main-segment weights into one convolution over the projection's
  /// spiking input (cons(proj(s)) == comp(s) — both maps are linear and
  /// the tap arithmetic composes exactly, including zero padding: a
  /// consumer tap past the projection's output grid reads position
  /// r * s1 >= src_h, outside the source too). Taps land on a grid
  /// dilated by the projection stride s1; stored as an enlarged
  /// (k2-1)*s1+1 kernel with zeros off-grid since the kernels have no
  /// dilation support. Returns the raw (O, C'K'K') composite, which the
  /// weight builders fold and quantize exactly like the op's own rows.
  std::vector<float> build_sunk_term(TermPlan& t, Conv2d& proj, Conv2d& cons,
                                     const Shape& src_s) {
    const std::int64_t s1 = proj.stride();
    const std::int64_t k2 = cons.kernel();
    const std::int64_t kc = (k2 - 1) * s1 + 1;
    const std::int64_t src_c = proj.in_channels();
    const std::int64_t mid_c = proj.out_channels();
    const std::int64_t o_c = cons.out_channels();
    const std::int64_t in_c2 = cons.in_channels();
    t.sunk = true;
    t.channels = src_c;
    t.geom = ConvGeometry{src_c, src_s[2], src_s[3], kc,
                          s1 * cons.stride(), cons.pad() * s1};
    t.taps = tap_table(t.geom);
    t.pgeom = ConvGeometry{src_c, src_s[2], src_s[3], 1, s1, 0};
    t.proj_c = mid_c;
    t.pw.assign(proj.weight().value.data(),
                proj.weight().value.data() + mid_c * src_c);

    const float* w1 = proj.weight().value.data();  // (mid_c, src_c)
    const float* w2 = cons.weight().value.data();  // (o_c, in_c2, k2, k2)
    const std::int64_t ckk = src_c * kc * kc;
    std::vector<float> base(static_cast<std::size_t>(o_c * ckk), 0.f);
    for (std::int64_t o = 0; o < o_c; ++o) {
      for (std::int64_t dy = 0; dy < k2; ++dy) {
        for (std::int64_t dx = 0; dx < k2; ++dx) {
          for (std::int64_t c = 0; c < src_c; ++c) {
            float acc = 0.f;
            for (std::int64_t m = 0; m < mid_c; ++m) {
              acc += w2[((o * in_c2 + m) * k2 + dy) * k2 + dx] *
                     w1[m * src_c + c];
            }
            base[static_cast<std::size_t>(
                ((o * src_c + c) * kc + dy * s1) * kc + dx * s1)] = acc;
          }
        }
      }
    }
    return base;
  }

  int lower_block(Block& blk, int block_in) {
    if (!blk.recurrent_edges().empty()) {
      fail("block '" + blk.name() +
           "' has recurrent (one-step-delayed) edges; those are a "
           "training-graph extension — compile feed-forward adjacencies "
           "only");
    }
    const int d = blk.spec().depth();
    std::vector<int> node_vals(static_cast<std::size_t>(d) + 1, -1);
    node_vals[0] = block_in;

    for (int i = 1; i <= d; ++i) {
      Block::Node& node = blk.nodes()[static_cast<std::size_t>(i - 1)];
      // Copy: emitting proj/gather ops below reallocates the value table.
      const Shape in_s = shape(node_vals[static_cast<std::size_t>(i - 1)]);
      auto* bn = dynamic_cast<BatchNormTT*>(node.bn.get());
      if (bn == nullptr) fail("block node has no BatchNormTT");

      OpPlan op;
      op.name = node.op->name();
      op.epi = classify_neuron(node.neuron.get(), op);
      op.out_c = node.plan.out_channels;
      WeightBuild b;  // collects sunk composites on the way

      // Main term: the sequential predecessor.
      {
        TermPlan t;
        t.value = node_vals[static_cast<std::size_t>(i - 1)];
        t.channels = node.main_in_c;
        t.spiking =
            plan_.values[static_cast<std::size_t>(t.value)].spiking;
        op.terms.push_back(std::move(t));
      }

      // ASC edges add onto the main channel range (conv linearity turns
      // the join into extra accumulation terms). In fold mode a 1x1
      // no-bias projection into a Conv2d consumer is SUNK: composed into
      // the consumer's main-segment weights so the term convolves the
      // original spiking source directly (see TermPlan::sunk). Otherwise
      // the projection becomes its own Conv op producing a dense term —
      // exactly the 1x1 conv the training graph runs inside
      // assemble_input (and what the no-fold bitwise mode must match).
      for (auto& edge : blk.skip_edges()) {
        if (edge.dst != i || edge.type != SkipType::ASC) continue;
        const int src_val = node_vals[static_cast<std::size_t>(edge.src)];
        TermPlan t;
        t.add_join = true;
        t.channels = node.main_in_c;
        if (edge.proj != nullptr) {
          auto* proj = dynamic_cast<Conv2d*>(edge.proj.get());
          if (proj == nullptr) fail("ASC projection is not a Conv2d");
          auto* cons = dynamic_cast<Conv2d*>(node.op.get());
          const bool src_spiking =
              plan_.values[static_cast<std::size_t>(src_val)].spiking;
          if (opts_.fold_bn && cons != nullptr && src_spiking &&
              proj->kernel() == 1 && !proj->has_bias() &&
              proj->out_channels() == node.main_in_c) {
            const Shape ss = shape(src_val);
            b.sunk.push_back(build_sunk_term(t, *proj, *cons, ss));
            t.value = src_val;
            t.spiking = true;
          } else {
            t.value = lower_conv(*proj, nullptr, nullptr, src_val,
                                 proj->name());
          }
        } else {
          t.value = src_val;
          t.spiking =
              plan_.values[static_cast<std::size_t>(t.value)].spiking;
        }
        op.terms.push_back(std::move(t));
      }

      // DSC edges concatenate channel subsets after the main range, in
      // (dst, src) edge order — the used_weight_channels layout.
      std::int64_t off = node.main_in_c;
      for (auto& edge : blk.skip_edges()) {
        if (edge.dst != i || edge.type != SkipType::DSC) continue;
        const int src_val = node_vals[static_cast<std::size_t>(edge.src)];
        const std::int64_t len =
            static_cast<std::int64_t>(edge.channels.size());
        TermPlan t;
        t.offset = off;
        t.channels = len;
        if (edge.pool != nullptr) {
          auto* pool = dynamic_cast<AvgPool2d*>(edge.pool.get());
          if (pool == nullptr) fail("DSC pool is not an AvgPool2d");
          // Gather + ceil-mode pool runs as its own op; the conv then
          // consumes its dense output as a plain concat term.
          OpPlan gop;
          gop.kind = OpKind::DscGather;
          gop.name = blk.name() + ".e" + std::to_string(edge.src) + "_" +
                     std::to_string(edge.dst) + ".pool";
          gop.pool_kernel = pool->kernel();
          gop.pool_stride = pool->stride();
          gop.pool_ceil = pool->ceil_mode();
          TermPlan gt;
          gt.value = src_val;
          gt.channels = len;
          gt.gather = edge.channels;
          gop.terms.push_back(std::move(gt));
          const Shape ss = shape(src_val);
          const Shape pooled = pool->output_shape(
              Shape{ss[0], len, ss[2], ss[3]});
          t.value = emit(std::move(gop), pooled, /*out_spiking=*/false);
        } else {
          t.value = src_val;
          t.spiking =
              plan_.values[static_cast<std::size_t>(t.value)].spiking;
          t.gather = edge.channels;
          const std::int64_t src_c = shape(src_val)[1];
          t.chrow.assign(static_cast<std::size_t>(src_c), -1);
          for (std::int64_t k = 0; k < len; ++k) {
            t.chrow[static_cast<std::size_t>(
                edge.channels[static_cast<std::size_t>(k)])] =
                static_cast<std::int32_t>(off + k);
          }
        }
        off += len;
        op.terms.push_back(std::move(t));
      }

      // The node op itself.
      Shape out_shape;
      const Shape op_in{in_s[0], node.used_in_c, in_s[2], in_s[3]};
      if (auto* conv = dynamic_cast<Conv2d*>(node.op.get())) {
        op.kind = OpKind::Conv;
        op.geom = ConvGeometry{conv->in_channels(), in_s[2], in_s[3],
                               conv->kernel(), conv->stride(), conv->pad()};
        op.macs = conv->macs(op_in);
        b.w = conv->weight().value.data();
        b.layer_bias =
            conv->has_bias() ? conv->bias().value.data() : nullptr;
        b.rows = conv->out_channels();
        b.cols = conv->in_channels() * conv->kernel() * conv->kernel();
        build_op_weights(op, b, bn);
        out_shape = conv->output_shape(op_in);
      } else if (auto* dw = dynamic_cast<DepthwiseConv2d*>(node.op.get())) {
        op.kind = OpKind::DwConv;
        op.geom = ConvGeometry{dw->channels(), in_s[2], in_s[3],
                               dw->kernel(), dw->stride(), dw->pad()};
        op.macs = dw->macs(op_in);
        b.w = dw->weight().value.data();
        b.layer_bias = dw->has_bias() ? dw->bias().value.data() : nullptr;
        b.rows = dw->channels();
        b.cols = dw->kernel() * dw->kernel();
        build_op_weights(op, b, bn);
        out_shape = dw->output_shape(op_in);
      } else {
        fail("unsupported block node op '" + node.op->name() + "'");
      }
      op.taps = tap_table(op.geom);

      const bool spiking_out = op.epi == Epi::Lif;
      node_vals[static_cast<std::size_t>(i)] =
          emit(std::move(op), out_shape, spiking_out);
    }
    return node_vals[static_cast<std::size_t>(d)];
  }

  // ---- buffer planning ----------------------------------------------------

  struct Interval {
    std::int64_t off = 0, size = 0;
    int def = 0, last = 0;
  };

  static bool time_overlap(const Interval& a, int def, int last) {
    return !(a.last < def || last < a.def);
  }

  /// First-fit offset for [def, last] x size against already-placed
  /// intervals: lowest offset whose space is free for the whole lifetime.
  static std::int64_t place(std::vector<Interval>& placed, std::int64_t size,
                            int def, int last) {
    std::vector<const Interval*> clash;
    for (const Interval& p : placed) {
      if (time_overlap(p, def, last)) clash.push_back(&p);
    }
    std::sort(clash.begin(), clash.end(),
              [](const Interval* a, const Interval* b) {
                return a->off < b->off;
              });
    std::int64_t off = 0;
    for (const Interval* p : clash) {
      if (off + size <= p->off) break;
      off = std::max(off, p->off + p->size);
    }
    placed.push_back(Interval{off, size, def, last});
    return off;
  }

  void finalize() {
    const int nops = static_cast<int>(plan_.ops.size());
    // The output must survive the whole step (it is read back after the
    // op loop); the input is written before op 0 runs.
    plan_.values[static_cast<std::size_t>(plan_.output_value)].last_use =
        nops;
    auto& in_v =
        plan_.values[static_cast<std::size_t>(plan_.input_value)];
    in_v.last_use = std::max(in_v.last_use, 0);

    std::vector<Interval> fplaced, wplaced;
    std::int64_t fhigh = 0, whigh = 0;
    for (auto& v : plan_.values) {
      const int def = v.def;  // -1 for the input: live from step start
      const int last = std::max(v.last_use, v.def);
      v.dense_off = place(fplaced, v.floats, def, last);
      fhigh = std::max(fhigh, v.dense_off + v.floats);
      if (v.words > 0) {
        v.packed_off = place(wplaced, v.words, def, last);
        whigh = std::max(whigh, v.packed_off + v.words);
      }
    }
    plan_.float_arena = fhigh;
    plan_.word_arena = whigh;
    plan_.state_arena = state_floats_;

    // Scratch high-water: the worst case over every op x dispatch mode,
    // so runtime dispatch can never outgrow the preallocated block.
    std::int64_t scratch = 0;
    for (const OpPlan& op : plan_.ops) {
      scratch = std::max(scratch, op_scratch(op));
    }
    plan_.scratch_floats = scratch;
  }

  /// Float slots holding `n` int8 activation codes (int8 dense dispatch
  /// quantizes its operand into the tail of the op's scratch).
  std::int64_t code_floats(std::int64_t n) const {
    return int8() ? (n + 3) / 4 : 0;
  }

  /// Mirrors the engine's per-op scratch layout (engine.cpp): the
  /// accumulator, then the packed conv panel's transpose or, for dense
  /// dispatch, the assembled image and its patch matrix or int8 codes.
  std::int64_t op_scratch(const OpPlan& op) const {
    switch (op.kind) {
      case OpKind::Conv: {
        const std::int64_t p = op.geom.out_h() * op.geom.out_w();
        const std::int64_t ckk = op.geom.col_rows();
        const std::int64_t in_img =
            op.geom.in_c * op.geom.in_h * op.geom.in_w;
        // The patch region also hosts each sunk term's 1x1 projection
        // patches, re-materialized before the main lowering overwrites
        // it; int8 codes follow the main patch matrix.
        std::int64_t patch = ckk * p + code_floats(ckk * p);
        for (const TermPlan& t : op.terms) {
          if (!t.sunk) continue;
          patch = std::max(patch, t.pgeom.col_rows() * t.pgeom.out_h() *
                                      t.pgeom.out_w());
        }
        return op.out_c * p + std::max(op.out_c * p, in_img + patch);
      }
      case OpKind::DwConv: {
        const std::int64_t p = op.geom.out_h() * op.geom.out_w();
        const std::int64_t in_img =
            op.geom.in_c * op.geom.in_h * op.geom.in_w;
        return op.geom.in_c * p + in_img + code_floats(in_img);
      }
      case OpKind::Linear: {
        const Shape& s =
            plan_.values[static_cast<std::size_t>(op.out)].shape;
        return s.numel() + code_floats(op.terms.front().channels);
      }
      case OpKind::DscGather: {
        const auto& t = op.terms.front();
        const Shape& s =
            plan_.values[static_cast<std::size_t>(t.value)].shape;
        return t.channels * s[2] * s[3];
      }
      default:
        return 0;
    }
  }

  Network& net_;
  CompileOptions opts_;
  Plan plan_;
  std::int64_t state_floats_ = 0;
};

}  // namespace

Plan compile_plan(Network& net, const Shape& input_shape,
                  const CompileOptions& opts) {
  Compiler c(net, input_shape, opts);
  return c.run();
}

PlanPtr compile(Network& net, const Shape& input_shape,
                const CompileOptions& opts) {
  return std::make_shared<const Plan>(compile_plan(net, input_shape, opts));
}

}  // namespace snnskip::infer
