#pragma once
// 2-D convolution: direct register-tiled kernels for dense inputs, and
// event-driven sparse paths in both directions.
//
// Weight layout OIHW: (out_channels, in_channels, kernel, kernel).
// Forward asks the training layers' one dispatch (nn/sparse_dispatch.h):
// binary/sparse spike tensors below the SparseExec threshold scatter
// weight rows per active spike (tensor/spike_kernels.h); denser inputs
// take the direct kernels of tensor/conv_direct.h, which read a
// zero-padded copy of each image carved from the Workspace arena, so the
// per-timestep loop never touches the heap in steady state.
//
// Backward: when the sparse forward ran, the saved input is the forward
// SpikeCsr instead of the dense tensor — dW comes straight from the
// packed events (work ∝ nnz·K²·O) and the retained-activation footprint
// drops from N·C·H·W floats to the event list. Dense saves keep the input,
// which the direct dW kernel re-reads. dX asks the same dispatch on
// grad_out's density (exact nonzero count) and takes an event-driven
// scatter or the direct dX kernel. All paths add the same products in the
// same order, so their results are bitwise equal.
//
// Small outputs: below kGemmTileCols (16) output pixels per image, the
// dense path runs one GEMM per call over all P = N*HoWo patch rows
// (im2row): forward out(P, O) = rows(P, CKK) * W^T, dX rows'(P, CKK) =
// gO^T(P, O) * W scattered back per image by row2im, and at HoWo == 1 dW
// as one gemm_tn over K = N images (other small shapes use the direct dW
// kernel). Each output element keeps its products and their order, so
// the answers are bitwise those of the direct kernels.

#include "nn/layer.h"
#include "nn/sparse_dispatch.h"
#include "tensor/im2col.h"
#include "util/rng.h"

namespace snnskip {

class Conv2d final : public Layer {
 public:
  /// Kaiming-normal initialized convolution.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         bool bias, Rng& rng, std::string layer_name = "conv2d");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void reset_state() override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  std::int64_t macs(const Shape& in) const override;
  Shape output_shape(const Shape& in) const override;

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

  /// First-layer optimization: when the layer's input gradient is known to
  /// be discarded (the network's stem conv — nothing is below it),
  /// backward skips the whole dX computation and returns zeros.
  void set_input_grad_needed(bool needed) { input_grad_needed_ = needed; }
  bool input_grad_needed() const { return input_grad_needed_; }

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  bool input_grad_needed_ = true;
  std::string name_;
  Parameter weight_;
  Parameter bias_;
  SparseDispatch dispatch_;
};

}  // namespace snnskip
