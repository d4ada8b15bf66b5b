#pragma once
// Frozen execution plan for compiled inference (ISSUE 6).
//
// compile() (infer/compile.h) walks a trained Network once and lowers it
// into this flat program: a value table (every intermediate tensor, with
// its liveness interval and preassigned arena offset) and an op list
// (every layer, with BatchNormTT already folded and the LIF/PLIF update
// fused into the op's epilogue). The split mirrors hannk's
// graph-construction / execute() separation: all shape inference, weight
// re-layout, and buffer planning happens here, so the Engine's per-step
// loop is a dumb interpreter that never allocates.
//
// Value representation at runtime: every value owns a slice of one shared
// float arena (the dense mirror); spiking values additionally own a slice
// of a word arena holding the bit-packed spike mask (64 spikes/word, NCHW
// flat order — tensor/spike_packed.h). Skip joins never materialize an
// assembled input on the event path: each source is a TermPlan of the
// consuming op, and conv linearity (conv(a + b) == conv(a) + conv(b))
// turns an ADD join into "accumulate both terms' events into one panel"
// and a concat join into a chrow-mapped weight-row selection.
//
// Liveness intervals [def, last_use] drive a first-fit interval
// allocation over both arenas; overlapping lifetimes get disjoint slices
// (asserted by tests/infer_test.cpp's aliasing check). Persistent neuron
// state (membranes, refractory counters) lives in a separate state arena
// that is never reused within a step and is zeroed at sequence
// boundaries.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/im2col.h"
#include "tensor/shape.h"

namespace snnskip::infer {

/// Weight numeric format of a compiled plan (ISSUE 10). Int8 stores ONE
/// per-output-channel symmetric int8 weight copy per op and absorbs the
/// per-timestep BNTT fold into the epilogue's requantization scale
/// (scale_t[o] = S[o] * bn_scale_t[o]) — versus one fp32 copy per
/// timestep in folded fp32 mode, the ~4x-per-copy x T-copies memory win
/// that motivated the format (DESIGN.md §5k).
enum class Precision : std::uint8_t { Fp32, Int8 };

inline const char* precision_name(Precision p) {
  return p == Precision::Int8 ? "int8" : "fp32";
}

inline bool parse_precision(const std::string& s, Precision* out) {
  if (s == "fp32") { *out = Precision::Fp32; return true; }
  if (s == "int8") { *out = Precision::Int8; return true; }
  return false;
}

enum class OpKind : std::uint8_t {
  Conv,       ///< conv2d over 1+ terms (main / ADD-skip / concat-skip)
  DwConv,     ///< depthwise conv over 1+ ADD terms
  Linear,     ///< fully connected on the dense mirror
  DscGather,  ///< gather a DSC channel subset (+ ceil-mode avgpool)
  AvgPool,
  GlobalAvgPool,
  Neuron,     ///< standalone LIF/PLIF on a dense value
  Relu,       ///< standalone ReLU (analog twins)
  Copy,       ///< identity / reshape
};

/// Fused epilogue applied to the op's accumulator in the same pass that
/// writes the output value (BN scale/shift folded in either way).
enum class Epi : std::uint8_t { None, Lif, Relu };

/// One input source of a Conv/DwConv op.
struct TermPlan {
  int value = -1;  ///< producing value id
  /// Source-channel -> consumer-input-channel map for the packed kernels;
  /// empty means identity (source channels == rows [0, channels)).
  std::vector<std::int32_t> chrow;
  /// Consumer input channels [offset, offset + channels) this term feeds
  /// (dense assembly destination; ADD terms share offset 0).
  std::int64_t offset = 0;
  std::int64_t channels = 0;
  /// DSC only: source channels gathered during dense assembly (chrow's
  /// inverse, kept so assembly is a straight gather loop).
  std::vector<std::int64_t> gather;
  /// True when the term adds onto channels also fed by another term (ADD
  /// join) rather than owning its channel range (concat join / main path).
  bool add_join = false;
  /// Producer emits a packed spike mask (event path eligible).
  bool spiking = false;

  // ASC-projection sinking (fold mode). conv(proj(s)) with a 1x1 no-bias
  // projection is itself a convolution over the original SPIKING source
  // s, so the compiler composes the projection into the consumer's
  // main-segment weights: taps land on a grid dilated by the projection
  // stride, emulated as an enlarged (k-1)*s+1 kernel whose off-grid rows
  // are zero (the event kernels have no dilation support; zero rows only
  // cost event-proportional accumulates). Without sinking the
  // projection's analog output would force the consumer dense every
  // step — the single biggest cost on ResNet-shaped stacks at low
  // density. A sunk term carries its own geometry and per-timestep
  // weight copies; `value` is the projection's input.
  bool sunk = false;
  ConvGeometry geom{};                 ///< composite geometry over source
  std::vector<std::int32_t> taps;      ///< tap table of `geom`
  std::vector<std::vector<float>> wt;  ///< per-t ((c,ky,kx), o) panels
  // Dense-dispatch route: the composite kernel's zero rows are free on
  // the event path but real GEMM work when dense, so at dense dispatch
  // the engine instead materializes the projection into the assembled
  // input with the RAW 1x1 weights — exactly the training graph's
  // compute (one GEMM over the summed input).
  std::vector<float> pw;   ///< raw (proj_c, src_c) 1x1 projection weights
  ConvGeometry pgeom{};    ///< 1x1 stride-s1 geometry over the source
  std::int64_t proj_c = 0; ///< projection output channels (== main in_c)

  /// Int8 plans: the composite kernel quantized with the CONSUMER's
  /// per-output-channel scales (shared S[o] over own + sunk rows, so one
  /// int32 panel dequantizes uniformly), transposed ((c,ky,kx), o) for
  /// the packed event kernel. `wt` stays empty; dense dispatch
  /// re-materializes the raw fp32 1x1 projection (`pw`) exactly like the
  /// fp32 engine.
  std::vector<std::int8_t> wq8;
};

struct ValuePlan {
  Shape shape;
  std::int64_t floats = 0;      ///< dense numel
  std::int64_t words = 0;       ///< packed words (0: dense-only value)
  std::int64_t dense_off = -1;  ///< float-arena offset
  std::int64_t packed_off = -1; ///< word-arena offset
  int def = -1;                 ///< producing op index (-1: network input)
  int last_use = -1;            ///< last consuming op index
  bool spiking = false;         ///< carries a packed mask
};

struct OpPlan {
  OpKind kind = OpKind::Copy;
  Epi epi = Epi::None;
  std::string name;  ///< layer name (telemetry span label)
  int out = -1;      ///< output value id
  std::vector<TermPlan> terms;

  // Geometry. For Conv/DwConv, `geom.in_c` is the op's TOTAL input
  // channels (main + active concat segments). For pools, kernel/stride/
  // ceil_mode below apply.
  ConvGeometry geom{};
  std::int64_t out_c = 0;
  /// Conv/DwConv: the packed term kernels' tap table of `geom`
  /// (tensor/spike_packed.h), built once at compile time so no step
  /// decodes a tap with a division or builds a table.
  std::vector<std::int32_t> taps;
  std::int64_t pool_kernel = 0, pool_stride = 0;
  bool pool_ceil = false;

  // Weights. `wt[i]` is the event kernels' panel: the transposed
  // ((c,ky,kx), o) layout for Conv, the (C, K, K) bank unchanged for
  // DwConv. `wd[i]` holds the dense GEMM's row-major rows: (O, C*K*K) for
  // Conv, (O, I) for Linear — the exact layout the training graph's GEMM
  // reads. With BN folding there is one copy per BNTT timestep (weights
  // differ per t); without, a single copy plus per-timestep epilogue
  // scale.
  std::vector<std::vector<float>> wt;
  std::vector<std::vector<float>> wd;
  std::vector<std::vector<float>> bias;   ///< folded bias/shift per copy
  std::vector<std::vector<float>> scale;  ///< no-fold mode: BN scale per t

  // Int8 plans (Plan::precision == Precision::Int8): ONE quantized weight
  // copy (per-output-channel symmetric, S[o] = row absmax / 127, shared
  // with every sunk term's composite rows), in the same two layouts:
  // `wq8t` mirrors `wt` and `wq8d` mirrors `wd`. `scale` then holds the
  // DEQUANT scales per timestep (S[o] * bn_scale_t[o]) and `bias` the
  // per-t shifts — the same epilogue mechanism as fp32 no-fold mode,
  // which is what keeps one int8 copy sufficient across all BNTT
  // timesteps.
  std::vector<std::int8_t> wq8t;
  std::vector<std::int8_t> wq8d;
  /// Int8 dense dispatch: the input quantization STEP (dequant
  /// multiplier `a`; codes are clamp(floor(x / a + 0.5))). Exactly 1.0
  /// when every input term is binary spikes and none is sunk — assembled
  /// values are then small integers and quantization is exact, making
  /// dense and packed int8 dispatch bitwise-equal. Otherwise calibrated
  /// from a QuantProfile (amax / 127; default amax 1.0).
  float in_scale = 1.f;

  // Fused neuron parameters (epi == Lif).
  float beta = 0.9f;
  float theta = 1.f;
  std::int64_t refractory = 0;
  std::int64_t state_off = -1;   ///< membrane offset in the state arena
  std::int64_t refrac_off = -1;  ///< refractory counters (refractory > 0)

  std::int64_t macs = 0;  ///< dense MACs per step (energy accounting)

  /// Weight/bias copy for engine timestep `t` (BNTT wrap semantics).
  std::int64_t copy_index(std::int64_t t) const {
    const auto n = static_cast<std::int64_t>(bias.size());
    return n <= 1 ? 0 : (t < n ? t : n - 1);
  }

  /// `wt`/`wd` index for timestep `t`: folded plans keep one fp32 copy
  /// per timestep, no-fold and int8 plans a single one.
  std::size_t weight_copy(std::int64_t t) const {
    return wt.size() <= 1 && wd.size() <= 1
               ? 0
               : static_cast<std::size_t>(copy_index(t));
  }
};

struct Plan {
  std::string model_name;  ///< telemetry label
  Shape input_shape;       ///< (1, C, H, W) frozen at compile time
  Shape output_shape;
  int input_value = 0;
  int output_value = -1;
  bool bn_folded = true;
  Precision precision = Precision::Fp32;

  std::vector<ValuePlan> values;
  std::vector<OpPlan> ops;

  std::int64_t float_arena = 0;    ///< floats, shared/reused across values
  std::int64_t word_arena = 0;     ///< words, shared/reused across values
  std::int64_t state_arena = 0;    ///< floats, persistent neuron state
  std::int64_t scratch_floats = 0; ///< per-op scratch high-water

  /// Total bytes of weight payload (all copies, fp32 and int8, including
  /// sunk-term composites, biases, and scales) — the memory-footprint
  /// accounting behind the int8 acceptance gate (engine weight memory
  /// <= 0.30x of the fp32 plan on ResNet-18S).
  std::int64_t weight_bytes() const {
    std::int64_t b = 0;
    auto fv = [&b](const std::vector<std::vector<float>>& vv) {
      for (const auto& v : vv) b += static_cast<std::int64_t>(v.size()) * 4;
    };
    for (const OpPlan& op : ops) {
      fv(op.wt);
      fv(op.wd);
      fv(op.bias);
      fv(op.scale);
      b += static_cast<std::int64_t>(op.wq8t.size());
      b += static_cast<std::int64_t>(op.wq8d.size());
      for (const TermPlan& t : op.terms) {
        fv(t.wt);
        b += static_cast<std::int64_t>(t.pw.size()) * 4;
        b += static_cast<std::int64_t>(t.wq8.size());
      }
    }
    return b;
  }
};

using PlanPtr = std::shared_ptr<const Plan>;

}  // namespace snnskip::infer
