#pragma once
// Free-function tensor operations used by the layer library and the joins.
//
// Channel-dimension manipulation (concat / slice / gather) is what realizes
// the paper's two skip-connection types: DSC concatenates (a subset of)
// earlier layers' channels, ASC adds tensors element-wise.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace snnskip {

/// out = a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// Concatenate NCHW tensors along the channel axis (dim 1). All inputs must
/// agree on N, H, W.
Tensor concat_channels(const std::vector<const Tensor*>& inputs);

/// Extract channels [c0, c1) of an NCHW tensor.
Tensor slice_channels(const Tensor& x, std::int64_t c0, std::int64_t c1);

/// Gather an arbitrary channel subset (used by DSC channel sub-sampling).
Tensor gather_channels(const Tensor& x, const std::vector<std::int64_t>& idx);

/// Scatter-add `grad` (N,|idx|,H,W) back into channels `idx` of an NCHW
/// accumulator — the backward of gather_channels.
void scatter_add_channels(Tensor& acc, const Tensor& grad,
                          const std::vector<std::int64_t>& idx);

/// Row-wise softmax of an NC tensor.
Tensor softmax(const Tensor& logits);

/// Row-wise argmax of an NC tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& logits);

/// Zero-pad an NCHW tensor spatially by `pad` on each side.
Tensor pad2d(const Tensor& x, std::int64_t pad);

/// Crop the spatial padding added by pad2d (backward of pad2d).
Tensor unpad2d(const Tensor& x, std::int64_t pad);

/// Average-pool `planes` contiguous (h, w) planes of `src` into (ho, wo)
/// planes of `dst` with a kernel x kernel window moved by `stride`. A
/// window cut off by the bottom or right edge (ceil-mode output sizes)
/// averages only the pixels it covers. AvgPool2d and the inference
/// engine's pooling ops share this one loop, so their answers agree
/// bitwise.
void avg_pool_planes(const float* src, std::int64_t planes, std::int64_t h,
                     std::int64_t w, std::int64_t kernel, std::int64_t stride,
                     std::int64_t ho, std::int64_t wo, float* dst);

}  // namespace snnskip
