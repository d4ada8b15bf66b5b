#include "tensor/spike_kernels.h"

#include <atomic>

#include "telemetry/telemetry.h"
#include "tensor/conv_direct.h"
#include "tensor/epilogue.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_kernels_impl.h"
#include "util/runtime_env.h"

namespace snnskip {

namespace {

// -1 = "not explicitly set": threshold() then falls back to
// SNNSKIP_SPARSE_THRESHOLD (default 0.25), read once on first use.
// set_threshold() pins an explicit value that wins from then on.
std::atomic<float> g_threshold{-1.f};

}  // namespace

float SparseExec::threshold() {
  const float t = g_threshold.load(std::memory_order_relaxed);
  if (t >= 0.f) return t;
  static const float env_threshold = static_cast<float>(env::get_double(
      "SNNSKIP_SPARSE_THRESHOLD", 0.25, /*lo=*/0.0, /*hi=*/1.0));
  return env_threshold;
}
void SparseExec::set_threshold(float t) {
  g_threshold.store(t, std::memory_order_relaxed);
}

bool SparseExec::dispatch(const float* data, std::int64_t n, bool backward) {
  const std::int64_t nnz = count_nonzero(data, n);
  const bool sparse = static_cast<double>(nnz) <
                      static_cast<double>(threshold()) * static_cast<double>(n);
  // No-ops while telemetry is off; traces carry the decisions next to the
  // per-layer spans.
  if (backward) {
    Telemetry::count(sparse ? "dispatch.bwd.sparse" : "dispatch.bwd.dense");
    Telemetry::count("dispatch.bwd.nnz", static_cast<double>(nnz));
    Telemetry::count("dispatch.bwd.elements", static_cast<double>(n));
  } else {
    Telemetry::count(sparse ? "dispatch.sparse" : "dispatch.dense");
    Telemetry::count("dispatch.nnz", static_cast<double>(nnz));
    Telemetry::count("dispatch.elements", static_cast<double>(n));
  }
  return sparse;
}

// ---- Dispatch tables -------------------------------------------------------

namespace simd {

const SpikeKernels* spike_kernels_scalar() {
  static const SpikeKernels k = spike_impl::make_spike_table<false>();
  return &k;
}

#if !defined(SNNSKIP_HAVE_AVX2)
// AVX2 translation units not built (non-x86 target or the toolchain lacks
// -mavx2): alias the scalar table so dispatch never branches on a null.
const SpikeKernels* spike_kernels_avx2() { return spike_kernels_scalar(); }
#endif

}  // namespace simd

// ---- Public entry points (resolve the table per call) ----------------------

std::int64_t count_nonzero(const float* data, std::int64_t n) {
  return simd::spike_ops().count_nonzero(data, n);
}

void transpose_panel(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst) {
  simd::spike_ops().transpose(src, rows, cols, dst);
}

void transpose_add_panel(const float* src, std::int64_t rows,
                         std::int64_t cols, float* dst) {
  simd::spike_ops().transpose_add(src, rows, cols, dst);
}

void spike_conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                          const float* weight, const float* bias,
                          std::int64_t out_c, float* out, Workspace& ws) {
  simd::spike_ops().conv2d_forward(g, csr, weight, bias, out_c, out, ws);
}

void spike_linear_forward(const SpikeCsr& csr, const float* weight,
                          const float* bias, std::int64_t out_f, float* out,
                          Workspace& ws) {
  simd::spike_ops().linear_forward(csr, weight, bias, out_f, out, ws);
}

void spike_depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                             const float* weight, const float* bias,
                             float* out) {
  simd::spike_ops().depthwise_forward(g, csr, weight, bias, out);
}

void spike_conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                                  const float* grad_out, std::int64_t out_c,
                                  float* grad_weight, Workspace& ws) {
  simd::spike_ops().conv2d_backward_weight(g, csr, grad_out, out_c,
                                           grad_weight, ws);
}

void spike_conv2d_backward_input(const ConvGeometry& g, const SpikeCsr& gcsr,
                                 const float* weight, std::int64_t out_c,
                                 float* grad_in, Workspace& ws) {
  simd::spike_ops().conv2d_backward_input(g, gcsr, weight, out_c, grad_in, ws);
}

void spike_linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                                  std::int64_t out_f, float* grad_weight,
                                  Workspace& ws) {
  simd::spike_ops().linear_backward_weight(csr, grad_out, out_f, grad_weight,
                                           ws);
}

void spike_linear_backward_input(const SpikeCsr& gcsr, const float* weight,
                                 std::int64_t in_f, float* grad_in) {
  simd::spike_ops().linear_backward_input(gcsr, weight, in_f, grad_in);
}

void spike_depthwise_backward_weight(const ConvGeometry& g,
                                     const SpikeCsr& csr,
                                     const float* grad_out,
                                     float* grad_weight) {
  simd::spike_ops().depthwise_backward_weight(g, csr, grad_out, grad_weight);
}

void conv2d_direct_forward(const ConvGeometry& g, std::int64_t n,
                           const float* x, const float* weight,
                           std::int64_t out_c, float* out, Workspace& ws) {
  simd::spike_ops().conv2d_direct_forward(g, n, x, weight, out_c, out, ws);
}

void conv2d_direct_backward_input(const ConvGeometry& g, std::int64_t n,
                                  const float* grad_out, const float* weight,
                                  std::int64_t out_c, float* grad_in,
                                  Workspace& ws) {
  simd::spike_ops().conv2d_direct_backward_input(g, n, grad_out, weight, out_c,
                                                 grad_in, ws);
}

void conv2d_direct_backward_weight(const ConvGeometry& g, std::int64_t n,
                                   const float* x, const float* grad_out,
                                   std::int64_t out_c, float* grad_weight,
                                   Workspace& ws) {
  simd::spike_ops().conv2d_direct_backward_weight(g, n, x, grad_out, out_c,
                                                  grad_weight, ws);
}

std::int64_t lif_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                              float scale, float bias, float beta, float theta,
                              float* m, float* dst, std::uint64_t* wbits,
                              std::int64_t bit0) {
  return simd::spike_ops().lif_row(p, acc, use_scale, scale, bias, beta,
                                   theta, m, dst, wbits, bit0);
}

std::int64_t lif_epilogue_panel(std::int64_t p, std::int64_t o_c,
                                const float* acc, const float* scale,
                                const float* bias, float beta, float theta,
                                float* m, float* dst, std::uint64_t* wbits) {
  return simd::spike_ops().lif_panel(p, o_c, acc, scale, bias, beta, theta, m,
                                     dst, wbits);
}

std::int64_t lif_epilogue_panel(std::int64_t p, std::int64_t o_c,
                                const std::int32_t* acc, const float* scale,
                                const float* bias, float beta, float theta,
                                float* m, float* dst, std::uint64_t* wbits) {
  return simd::spike_ops().lif_panel_i32(p, o_c, acc, scale, bias, beta,
                                         theta, m, dst, wbits);
}

void affine_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                         float scale, float bias, int relu, float* dst) {
  simd::spike_ops().affine_row(p, acc, use_scale, scale, bias, relu, dst);
}

}  // namespace snnskip
