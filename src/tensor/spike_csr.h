#pragma once
// Event-list (CSR) packing of spike activations.
//
// Spiking layers exchange binary, mostly-zero tensors; the event-driven
// kernels in spike_kernels.h want the nonzero coordinates, not the dense
// grid. SpikeCsr scans a (rows, row_len) view — rows are batch images for
// convolutions, batch rows for Linear — and packs each row's nonzero
// positions and values into one contiguous index/value array with a CSR
// row-pointer table. Layers build one only after the dispatch
// (SparseExec::dispatch) has chosen the event kernels.
//
// All storage is member-owned and cleared without shrinking, so rebuilding
// every timestep reuses capacity instead of reallocating.

#include <cstdint>
#include <vector>

namespace snnskip {

class SpikeCsr {
 public:
  /// Scan `data` viewed as (rows, row_len) and pack nonzero events.
  void build(const float* data, std::int64_t rows, std::int64_t row_len);

  std::int64_t rows() const {
    return static_cast<std::int64_t>(row_ptr_.empty() ? 0
                                                      : row_ptr_.size() - 1);
  }
  std::int64_t row_len() const { return row_len_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(idx_.size()); }
  /// Fraction of nonzero entries — identical definition to
  /// Tensor::nonzero_fraction() and FiringRateRecorder densities.
  double density() const {
    const double total =
        static_cast<double>(rows()) * static_cast<double>(row_len_);
    return total > 0.0 ? static_cast<double>(nnz()) / total : 0.0;
  }
  /// True when every packed value is exactly 1.f (a pure spike tensor).
  bool binary() const { return binary_; }

  /// Bytes a backward Ctx holding this packing keeps alive (indices +
  /// values + row pointers) — the number the BPTT retained-activation
  /// telemetry reports instead of the dense rows*row_len*4.
  std::int64_t retained_bytes() const {
    return static_cast<std::int64_t>(idx_.size() * sizeof(std::int32_t) +
                                     val_.size() * sizeof(float) +
                                     row_ptr_.size() * sizeof(std::int32_t));
  }

  std::int64_t row_nnz(std::int64_t r) const {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  }
  /// Positions (offsets within the row) of row r's nonzeros.
  const std::int32_t* row_indices(std::int64_t r) const {
    return idx_.data() + row_ptr_[static_cast<std::size_t>(r)];
  }
  /// Values aligned with row_indices(r); all 1.f when binary().
  const float* row_values(std::int64_t r) const {
    return val_.data() + row_ptr_[static_cast<std::size_t>(r)];
  }

 private:
  std::vector<std::int32_t> row_ptr_;  // rows + 1 entries
  std::vector<std::int32_t> idx_;
  std::vector<float> val_;
  std::int64_t row_len_ = 0;
  bool binary_ = true;
};

}  // namespace snnskip
