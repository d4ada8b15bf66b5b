#pragma once
// Network -> Plan compiler for the inference engine (ISSUE 6).
//
// compile() freezes a Network (stages + per-block adjacency wiring) into a
// flat infer::Plan at a FIXED (1, C, H, W) input shape — one request per
// engine run. Three passes, all ahead of execution:
//
//   1. BN folding — each BatchNormTT's eval-mode scale/shift is folded
//      into the preceding conv/linear weights and bias. BNTT has
//      per-timestep parameters, so folding produces one weight copy per
//      timestep (engine steps past t_max reuse the last copy, mirroring
//      BNTT's wrap). `fold_bn = false` keeps a single weight copy and
//      applies scale/shift in the epilogue instead — numerically
//      identical to the training graph's eval BN (same expressions), at
//      the cost of one extra multiply per output element; the folded mode
//      distributes the scale into the weights, which reassociates the
//      products and bounds the membrane difference by ~1e-6 relative
//      (documented in DESIGN.md §5g, asserted at 1e-5 in infer_test).
//   2. LIF/PLIF fusion — threshold-compare, soft reset, and refractory
//      gating become the op's epilogue, executed in the same pass that
//      writes the output's packed mask and dense mirror.
//   3. Buffer planning — shape inference sizes every intermediate value;
//      liveness intervals drive a first-fit interval allocation over one
//      float arena and one packed-word arena (Workspace-style high-water
//      accounting, but computed statically), and per-op scratch needs are
//      folded into a single shared scratch high-water. execute() then
//      performs zero heap allocations.
//
// Recurrent (one-step-delayed) adjacency edges are a training-graph
// extension; compile() rejects them with an explanatory error.

#include "graph/network.h"
#include "infer/plan.h"

namespace snnskip::infer {

struct QuantProfile;  // infer/quant.h — calibrated activation ranges

struct CompileOptions {
  /// Fold BN into weights (one copy per BNTT timestep). false: single
  /// weight copy, scale/shift applied in the epilogue (bit-identical to
  /// the training eval forward; used by the equivalence tests).
  bool fold_bn = true;
  /// Weight format (ISSUE 10). Int8 quantizes the RAW weights once
  /// (per-output-channel symmetric) and moves the BNTT fold into the
  /// epilogue's per-timestep dequant scale — one int8 copy instead of T
  /// fp32 copies. Requires fold_bn (the int8 plan relies on ASC-sinking
  /// for its packed path; the no-fold bitwise mode is fp32-only).
  Precision precision = Precision::Fp32;
  /// Optional calibrated activation ranges for int8 plans. Ops whose
  /// inputs are all binary spikes quantize exactly (step 1.0) and ignore
  /// this; analog-input ops (post-GAP linear, DSC-pooled convs, sunk
  /// rematerializations) use the profiled absmax, falling back to a
  /// conservative amax of 1.0 when null.
  const QuantProfile* quant = nullptr;
};

/// Freeze `net` at `input_shape` (1, C, H, W). Throws std::invalid_argument
/// when N != 1, on unsupported stages, or on recurrent adjacency edges.
Plan compile_plan(Network& net, const Shape& input_shape,
                  const CompileOptions& opts = {});

/// Shared-ownership convenience wrapper (multiple Engines, one Plan).
PlanPtr compile(Network& net, const Shape& input_shape,
                const CompileOptions& opts = {});

}  // namespace snnskip::infer
