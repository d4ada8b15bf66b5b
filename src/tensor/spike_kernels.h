#pragma once
// Event-driven forward AND backward kernels for spiking activations.
//
// Rationale (ISSUE 1 / ISSUE 4, DESIGN.md "Performance: event-driven
// execution"): SNN passes convolve binary, mostly-zero tensors T times per
// sample. Instead of lowering to im2col + GEMM and multiplying by zeros,
// these kernels walk the packed spike events (SpikeCsr) and accumulate
// the corresponding weight rows directly — cost scales with the number of
// spikes, not the tensor volume. Work per spike:
//
//   conv2d     K*K taps, each an O-length contiguous axpy into a
//              (HoWo, O)-transposed output panel (transposed once at the
//              end, so the inner loop is unit-stride in both operands)
//   linear     one O-length axpy from a transposed weight panel
//   depthwise  K*K scalar taps into the channel's own output plane
//
// The BPTT backward uses the same event lists twice:
//   dW         the forward input's SpikeCsr (kept in the layer's SavedInput
//              in place of the dense input) drives the weight
//              gradient — work ∝ nnz * K*K * O instead of O * CKK * HoWo
//   dX         the surrogate active set: Boxcar sigma' is exactly zero
//              outside its window, so LIF/PLIF gradients are themselves
//              sparse; a value-carrying CSR of the output gradient
//              drives an event-driven scatter instead of the dense dX
//
// Every backward kernel reproduces the dense path's per-output-element
// accumulation order exactly (increasing image, then increasing reduction
// index, products formed the same way), and parallel variants partition
// by OUTPUT ownership, so sparse and dense gradients agree bit-for-bit at
// any thread count. Skipped zero terms are IEEE no-ops: accumulators
// start at +0 and +0 + (-0) == +0 under round-to-nearest, so a signed
// zero can never propagate a difference.
//
// Dispatch: the training layers (nn/sparse_dispatch.h) ask
// SparseExec::dispatch() once per forward input and, for dX, once per
// output gradient; the event kernels run when the exact nonzero count is
// below SparseExec::threshold() of the tensor. Everything else (first
// encoder layer, BN outputs, dense gradients) takes the dense path
// (tensor/conv_direct.h for Conv2d, GEMM for Linear). Scratch comes from
// the Workspace arena — steady-state timesteps allocate nothing.

#include <cstdint>

#include "tensor/im2col.h"
#include "tensor/spike_csr.h"
#include "tensor/workspace.h"

namespace snnskip {

/// The training layers' sparse-vs-dense dispatch policy. The threshold is
/// SNNSKIP_SPARSE_THRESHOLD (default 0.25, read once) unless
/// set_threshold() pins one; 0 selects the dense path everywhere, 1 the
/// event kernels wherever the input is not fully dense.
class SparseExec {
 public:
  static float threshold();
  static void set_threshold(float t);

  /// The sparse-vs-dense choice: counts the nonzeros of `data` (n
  /// entries), returns true when they are fewer than threshold() * n, and
  /// adds the decision to the dispatch.{sparse,dense,nnz,elements}
  /// telemetry counters, or to their dispatch.bwd.* twins for an output
  /// gradient (`backward`). Takes no lock while telemetry is off.
  static bool dispatch(const float* data, std::int64_t n, bool backward);
};

/// Full-tensor nonzero count — the cheap sparsity scan behind the
/// sparse-vs-dense dispatch (one streaming pass, negligible next to any
/// kernel it gates).
std::int64_t count_nonzero(const float* data, std::int64_t n);

/// Cache-blocked transpose: dst(c, r) = src(r, c) for src of (rows, cols),
/// in 32x32 tiles; the 8x8 AVX2 block kernel engages per the active SIMD
/// level. Exact copies — bit-identical across tile sizes and SIMD levels.
void transpose_panel(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst);

/// dst(c, r) += src(r, c); same tiling. Each element is touched exactly
/// once, so this too is order-free and exact.
void transpose_add_panel(const float* src, std::int64_t rows,
                         std::int64_t cols, float* dst);

/// Event-driven Conv2d forward. `csr` packs the input as (N images,
/// C*H*W); `weight` is OIHW; `bias` may be null; `out` is (N, O, Ho, Wo).
void spike_conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                          const float* weight, const float* bias,
                          std::int64_t out_c, float* out, Workspace& ws);

/// Event-driven Linear forward. `csr` packs the input as (N, in_f);
/// `weight` is (out_f, in_f); `out` is (N, out_f).
void spike_linear_forward(const SpikeCsr& csr, const float* weight,
                          const float* bias, std::int64_t out_f, float* out,
                          Workspace& ws);

/// Event-driven depthwise conv forward. `csr` packs the input as
/// (N images, C*H*W); `weight` is (C, 1, K, K); `out` is (N, C, Ho, Wo).
void spike_depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                             const float* weight, const float* bias,
                             float* out);

// ---- BPTT backward (ISSUE 4) ----------------------------------------------

/// Conv2d weight gradient from the forward input's events. `csr` packs the
/// saved input as (N, C*H*W); `grad_out` is (N, O, Ho, Wo); ACCUMULATES
/// into `grad_weight` (O, C, K, K). Matches the direct dW kernel's
/// per-image partial-then-add accumulation bit-for-bit.
void spike_conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                                  const float* grad_out, std::int64_t out_c,
                                  float* grad_weight, Workspace& ws);

/// Conv2d input gradient from packed OUTPUT-gradient events. `gcsr` packs
/// grad_out as (N, O*Ho*Wo) with values; `weight` is (O, C, K, K); writes
/// into zero-initialized `grad_in` (N, C, H, W). Two phases per image:
/// build the active output columns (per column, events in increasing-o
/// order), then scatter them in ascending (c, ky, kx) kernel-row order,
/// so each input pixel receives the same per-tap sums in the same order
/// as from the direct dX kernel (tensor/conv_direct.h), bit-for-bit.
void spike_conv2d_backward_input(const ConvGeometry& g, const SpikeCsr& gcsr,
                                 const float* weight, std::int64_t out_c,
                                 float* grad_in, Workspace& ws);

/// Linear weight gradient from the forward input's events. `csr` packs the
/// saved input as (N, in_f); `grad_out` is (N, out_f); ACCUMULATES into
/// `grad_weight` (out_f, in_f) in gemm_tn's direct-onto-C order.
void spike_linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                                  std::int64_t out_f, float* grad_weight,
                                  Workspace& ws);

/// Linear input gradient from packed output-gradient events. `gcsr` packs
/// grad_out as (N, out_f); `weight` is (out_f, in_f); writes into
/// zero-initialized `grad_in` (N, in_f).
void spike_linear_backward_input(const SpikeCsr& gcsr, const float* weight,
                                 std::int64_t in_f, float* grad_in);

/// Depthwise weight gradient from the forward input's events. `csr` packs
/// the saved input as (N, C*H*W); `grad_out` is (N, C, Ho, Wo);
/// ACCUMULATES into `grad_weight` (C, 1, K, K).
void spike_depthwise_backward_weight(const ConvGeometry& g,
                                     const SpikeCsr& csr,
                                     const float* grad_out,
                                     float* grad_weight);

}  // namespace snnskip
