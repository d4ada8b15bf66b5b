#pragma once
// Depthwise 2-D convolution (groups == channels), the middle operation of
// MobileNetV2's inverted-residual block. Implemented with direct loops —
// the per-channel kernels are tiny, so im2col overhead isn't worth it.
// Sparse spike inputs below the SparseExec density threshold take an
// event-driven scatter path (K*K taps per active spike); the choice is
// the training layers' one dispatch (nn/sparse_dispatch.h). A sparse
// forward saves the SpikeCsr instead of the dense input: dW is driven by
// the packed events, while dX and the bias gradient come from a
// grad_out-driven loop identical to the dense one — the dense backward
// already skips zero output gradients, so it needs no dX dispatch.
//
// Weight layout: (channels, 1, kernel, kernel).

#include "nn/layer.h"
#include "nn/sparse_dispatch.h"
#include "util/rng.h"

namespace snnskip {

class DepthwiseConv2d final : public Layer {
 public:
  DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad, bool bias, Rng& rng,
                  std::string layer_name = "dwconv2d");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void reset_state() override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  std::int64_t macs(const Shape& in) const override;
  Shape output_shape(const Shape& in) const override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  std::int64_t channels() const { return c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  std::int64_t c_, kernel_, stride_, pad_;
  bool has_bias_;
  std::string name_;
  Parameter weight_;
  Parameter bias_;
  SparseDispatch dispatch_;
};

}  // namespace snnskip
