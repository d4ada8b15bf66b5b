#pragma once
// Interpreter for frozen execution plans (ISSUE 6).
//
// Engine executes an infer::Plan one timestep at a time. All buffers —
// the dense-mirror float arena, the packed-word arena, persistent neuron
// state, and a shared per-op scratch block — are allocated once in the
// constructor from the plan's precomputed high-water sizes, so step()
// performs zero heap allocations on the default (packed) path
// (tests/infer_test.cpp pins this with Workspace heap-alloc counters).
//
// Plans run one image per step (compile() freezes N = 1). Per
// conv/depthwise op, dispatch picks one of two modes each step from the
// op's measured input density (exact, via the packed masks' popcounts):
//
//   Packed  bit-packed event kernels (tensor/spike_packed.h). Requires
//           every input term to carry a valid packed mask and
//           density < threshold. Skip joins run directly on the
//           source masks — ADD joins accumulate each term into the same
//           output panel (conv is linear), concat joins select weight
//           rows through the term's chrow map — so no assembled input is
//           ever materialized.
//   Dense   assembled input + im2col + GEMM, for dense inputs (analog
//           values, projection outputs) or high firing rates.
//
// Both modes feed the same fused epilogue: BN scale/shift (folded into
// the weights, or applied here in no-fold mode), bias, and the LIF/PLIF
// threshold-compare / soft-reset / refractory update, which writes the
// output's dense mirror, its packed mask, and the exact spike popcount in
// one pass. Each op kind has one body for both precisions; a small
// per-precision traits struct in engine.cpp supplies what differs
// (accumulator type, weight panels, event kernel, dense GEMM step,
// epilogue input scale).
//
// Runtime configuration: the density threshold is PER ENGINE. Each
// Engine snapshots an ExecOptions at construction and never consults
// process-global state afterwards, so concurrent engines with different
// options (multi-tenant serving) cannot perturb each other. The
// environment only seeds the process-wide *default*, read once:
//   SNNSKIP_INFER_THRESHOLD=<frac>  default density cutoff for the packed
//                                   path (0.25, valid range [0, 1])

#include <cstdint>
#include <string>
#include <vector>

#include "infer/plan.h"
#include "metrics/energy.h"
#include "tensor/tensor.h"

namespace snnskip::infer {

/// Per-engine dispatch configuration. `ExecOptions{}` gives the compiled-in
/// default; `ExecOptions::defaults()` gives the process-wide default
/// (SNNSKIP_INFER_THRESHOLD), which is what `Engine(plan)` uses.
struct ExecOptions {
  /// Input density below which an op runs on the packed event kernels,
  /// in [0, 1]; 0 forces dense dispatch everywhere.
  float threshold = 0.25f;

  static ExecOptions defaults();
};

/// Per-engine execution statistics (reset with Engine::reset_stats).
/// Dispatch counts are per weight op: a step adds one per op.
struct ExecStats {
  std::int64_t steps = 0;
  std::int64_t packed_dispatches = 0;  ///< ops run on the packed kernels
  std::int64_t dense_dispatches = 0;   ///< ops run dense (GEMM / loops)
  std::int64_t spikes = 0;   ///< exact spike count (packed popcounts)
  std::int64_t synops = 0;   ///< exact accumulates on the packed path
  std::int64_t dense_macs = 0;  ///< MACs charged to dense dispatches

  /// Energy proxy: ac_pj per event-path accumulate, mac_pj per dense MAC
  /// (same 45 nm constants as metrics/energy.h).
  double energy_pj(const EnergyModel& m = {}) const {
    return m.ac_pj * static_cast<double>(synops) +
           m.mac_pj * static_cast<double>(dense_macs);
  }
};

class Engine {
 public:
  /// Preallocates every arena from the plan's high-water sizes and
  /// snapshots `opts` — later changes to the process-wide defaults never
  /// reach a constructed engine.
  Engine(PlanPtr plan, const ExecOptions& opts);
  /// Convenience: construct with the process-wide default options.
  explicit Engine(PlanPtr plan);

  const Plan& plan() const { return *plan_; }
  const ExecOptions& options() const { return opts_; }

  /// Zero all persistent neuron state and rewind the timestep counter
  /// (sequence boundary — the analogue of Network::reset_state()).
  void reset();

  /// Run one timestep. `x` must match the plan's frozen input shape;
  /// `out` is resized only if its shape mismatches the plan's output
  /// shape, so a correctly-sized tensor makes this call allocation-free
  /// on the packed path.
  void step(const Tensor& x, Tensor* out);

  /// Convenience wrapper that allocates the output tensor.
  Tensor step(const Tensor& x);

  const ExecStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ExecStats{}; }

  /// Calibration sink (infer/quant.h): when set on an FP32 engine,
  /// records each weight op's per-input absmax into `amax` (one slot per
  /// plan op, max-merged across steps) every time the op runs a
  /// dense dispatch — which is every step when the engine is built with
  /// threshold 0. The vector must outlive the engine or be cleared with
  /// nullptr; it must be sized to plan().ops.size().
  void set_calibration_sink(std::vector<float>* amax) { calib_ = amax; }

 private:
  float* dense(int v);
  std::uint64_t* words(int v);
  const ValuePlan& val(int v) const {
    return plan_->values[static_cast<std::size_t>(v)];
  }
  /// Exact spike count of value `v`; -1 while it has no valid packed
  /// mask (non-binary network input).
  std::int64_t& popcount(int v) {
    return popcnt_[static_cast<std::size_t>(v)];
  }

  void write_input(const Tensor& x);
  void exec_op(const OpPlan& op);
  /// True when every input term carries a valid packed mask and the
  /// terms' combined density is below the threshold.
  bool packed_ok(const OpPlan& op);
  /// Weight ops: one body per kind, instantiated per precision traits
  /// (engine.cpp) — packed event kernels or the dense route.
  template <class P>
  void exec_conv(const OpPlan& op);
  template <class P>
  void exec_dwconv(const OpPlan& op);
  template <class P>
  void exec_linear(const OpPlan& op);
  void exec_dsc_gather(const OpPlan& op);
  void exec_avgpool(const OpPlan& op);
  void exec_gap(const OpPlan& op);
  void exec_neuron(const OpPlan& op);
  void exec_copy(const OpPlan& op);

  /// Dense-assemble the op's input into `dst` (main copy, ADD-join axpys,
  /// concat gathers — the training graph's assemble_input, bitwise), then
  /// re-materialize every sunk projection term through its raw 1x1
  /// weights, using `patch` as the projection's patch matrix: the
  /// composite kernel's zero rows are free for event kernels but real
  /// GEMM work. Records the assembled range for calibration.
  void assemble(const OpPlan& op, float* dst, float* patch);

  /// Adds one packed or dense dispatch of an op to the stats; step()
  /// reports the step's dispatches to the telemetry counters.
  void count_dispatch(bool packed);

  /// Fused epilogue: scale/bias (+LIF or ReLU) over the (O, P)
  /// accumulator rows, writing the output's dense mirror, packed mask
  /// bits, and popcount. `ascale` is the int8 dense path's
  /// input quantization step, folded into the per-channel scale (eff[o] =
  /// ascale * sc[o]); 1.0 everywhere else (exact — multiplying a float by
  /// 1.0 is the identity, so fp32 plans are untouched).
  void epilogue(const OpPlan& op, const float* acc, float ascale = 1.f);

  /// The packed conv route's LIF epilogue (no refractory counter): reads
  /// the (P, O) event panel directly, float or int32, and writes what
  /// epilogue() writes, bitwise.
  template <class Acc>
  void lif_panel_epilogue(const OpPlan& op, const Acc* acc);

  /// Calibration: max-merge |x| over `n` floats into the current op's
  /// sink slot (no-op without a sink).
  void record_amax(const float* x, std::int64_t n);

  PlanPtr plan_;
  ExecOptions opts_;                   // snapshot; engine-local dispatch
  // Telemetry counter keys, prefixed with the plan's model name so
  // concurrent engines serving different models never bleed into one
  // aggregate (the unprefixed infer.* keys keep the process-wide totals).
  std::string ctr_steps_, ctr_spikes_, ctr_synops_;
  std::string ctr_packed_, ctr_dense_;
  std::vector<float> farena_;          // shared value dense mirrors
  std::vector<std::uint64_t> warena_;  // shared packed masks
  std::vector<float> sarena_;          // persistent neuron state
  std::vector<float> scratch_;         // per-op scratch high-water block
  std::vector<std::int64_t> popcnt_;   // per value: see popcount()
  std::int64_t t_ = 0;                 // timestep (BNTT copy selection)
  ExecStats stats_;
  std::vector<float>* calib_ = nullptr;  // per-op input absmax sink
  std::size_t cur_op_ = 0;               // op index for the sink slot

};

}  // namespace snnskip::infer
