#include "nn/sparse_dispatch.h"

#include <cassert>
#include <utility>

#include "telemetry/retained.h"
#include "tensor/spike_kernels.h"

namespace snnskip {

namespace {

// Packs `t` as (t.shape()[0] rows, the rest) when the policy picks the
// event kernels. A sparse choice implies numel > 0, so rows > 0.
bool dispatch_into(SpikeCsr& csr, const Tensor& t, bool backward) {
  if (!SparseExec::dispatch(t.data(), t.numel(), backward)) return false;
  const std::int64_t rows = t.shape()[0];
  csr.build(t.data(), rows, t.numel() / rows);
  return true;
}

}  // namespace

const SpikeCsr* SparseDispatch::forward(const Tensor& x, bool train) {
  const bool sparse = dispatch_into(csr_, x, /*backward=*/false);
  if (!train) return sparse ? &csr_ : nullptr;
  SavedInput s;
  s.shape = x.shape();
  s.sparse = sparse;
  if (sparse) {
    s.csr = std::move(csr_);
    s.bytes = s.csr.retained_bytes();
  } else {
    s.dense = x;
    s.bytes = x.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  RetainedActivations::add(s.bytes);
  saved_.push_back(std::move(s));
  return sparse ? &saved_.back().csr : nullptr;
}

SavedInput SparseDispatch::pop() {
  assert(!saved_.empty() && "backward without matching train forward");
  SavedInput s = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(s.bytes);
  return s;
}

const SpikeCsr* SparseDispatch::backward(const Tensor& grad) {
  return dispatch_into(csr_, grad, /*backward=*/true) ? &csr_ : nullptr;
}

void SparseDispatch::reset() {
  for (const SavedInput& s : saved_) RetainedActivations::sub(s.bytes);
  saved_.clear();
}

}  // namespace snnskip
