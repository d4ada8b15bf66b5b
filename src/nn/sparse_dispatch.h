#pragma once
// The one sparse-vs-dense dispatch of the training layers (Conv2d,
// Linear, DepthwiseConv2d).
//
// Forward: SparseExec::dispatch() counts the input's nonzeros exactly,
// compares them with the SparseExec threshold and records the choice in
// the dispatch.* telemetry counters; a sparse input is packed into a
// SpikeCsr for the event kernels. In train mode the layer's backward
// then gets what it needs: the forward's SpikeCsr when the event kernels
// ran (dW from the events, retained bytes ∝ nnz), the dense input
// otherwise, with the bytes charged to RetainedActivations.
//
// Backward: Conv2d and Linear ask again for dX, on the density of the
// output gradient they receive (dispatch.bwd.* counters); a sparse
// gradient is packed with its values for the event-driven scatter.

#include <cstdint>
#include <vector>

#include "tensor/spike_csr.h"
#include "tensor/tensor.h"

namespace snnskip {

/// A training layer's forward input as kept for its backward.
struct SavedInput {
  Shape shape;
  bool sparse = false;
  SpikeCsr csr;            // the forward's events when `sparse`
  Tensor dense;            // the input itself otherwise
  std::int64_t bytes = 0;  // RetainedActivations share
};

class SparseDispatch {
 public:
  /// Forward choice for `x`, viewed as (x.shape()[0] rows, the rest).
  /// Returns x's events when the event kernels should run, else null;
  /// valid until the next call. In train mode also saves x (as those
  /// events, or densely) for backward.
  const SpikeCsr* forward(const Tensor& x, bool train);

  /// The input the matching (last unpopped) train forward saved; its
  /// retained bytes are released.
  SavedInput pop();

  /// dX choice for `grad`: its nonzeros with values when the event
  /// scatter should run, else null. Valid until the next call.
  const SpikeCsr* backward(const Tensor& grad);

  /// Drop every saved input (Layer::reset_state).
  void reset();

 private:
  std::vector<SavedInput> saved_;
  SpikeCsr csr_;  // event-list scratch, capacity reused (moved into a
                  // SavedInput when a sparse train forward keeps it)
};

}  // namespace snnskip
