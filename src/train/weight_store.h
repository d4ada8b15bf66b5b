#pragma once
// Supernet weight store — the paper's weight-sharing trick (§III-B):
// "Because we optimize the skip connections, we can use previously trained
// weights and share them among all possible topologies... We only fine-tune
// the networks for n epochs."
//
// The store holds one tensor per stable parameter key. For block-node conv
// weights the stored tensor has the SUPERNET input width (main channels +
// every potential DSC segment, Block's canonical layout); a candidate's
// narrower weight is the gather of its active input-channel indices, and
// fine-tuned weights are scattered back. All other parameters (stem, head,
// projections, depthwise convs, batch-norm affines) are stored at their
// natural shape and copied whole.

#include <string>
#include <unordered_map>

#include "graph/network.h"
#include "tensor/tensor.h"

namespace snnskip {

class WeightStore {
 public:
  explicit WeightStore(std::uint64_t seed) : seed_(seed) {}

  bool contains(const std::string& key) const {
    return store_.count(key) != 0;
  }
  std::size_t size() const { return store_.size(); }

  /// Fetch the stored tensor for `key`, creating it with a deterministic
  /// Kaiming-style init (seeded by hash(key) ^ seed) if absent.
  Tensor& get_or_init(const std::string& key, const Shape& shape);

  /// Copy store -> network (gathering supernet conv slices per block node).
  void load_into(Network& net);
  /// Copy network -> store (scattering conv slices back).
  void store_from(Network& net);

  /// Bitwise equality with another store (same keys, same bytes) — the
  /// fault tests' "failed candidates left no trace" assertion.
  bool identical_to(const WeightStore& other) const;

  // Dim-1 gather/scatter on OIHW weights (exposed for tests).
  static Tensor gather_in_dim1(const Tensor& full,
                               const std::vector<std::int64_t>& idx);
  static void scatter_in_dim1(Tensor& full, const Tensor& sub,
                              const std::vector<std::int64_t>& idx);

 private:
  enum class Dir { Load, Store };
  void sync(Network& net, Dir dir);

  std::uint64_t seed_;
  std::unordered_map<std::string, Tensor> store_;
};

}  // namespace snnskip
