#pragma once
// Data-parallel loop helper over the global ThreadPool.
//
// parallel_for(0, n, body) partitions [0, n) into contiguous chunks, one
// task per worker (OpenMP "static schedule" style — the tensor kernels it
// backs have uniform per-index cost). The calling thread participates, so
// a single-core machine runs the body inline with zero task overhead.
//
// The body must be safe to run concurrently on disjoint index ranges; the
// reduction variant merges per-chunk partials in chunk order so results are
// deterministic regardless of thread count.

#include <cstddef>
#include <functional>
#include <vector>

namespace snnskip {

/// Grain control: ranges smaller than this run inline on the caller.
inline constexpr std::size_t kParallelForMinGrain = 1024;

/// Test override: when nonzero, parallel_for partitions every range
/// into exactly min(k, n) chunks, bypassing the grain and pool-size
/// heuristics. The sparse/dense gradient-equivalence tests use this to
/// exercise 1/2/4-way partitions on any machine (the kernels' bit-for-bit
/// guarantee must hold for every partition, not just the one this host's
/// core count happens to produce). 0 restores the default policy.
void set_parallel_chunk_override(std::size_t k);
std::size_t parallel_chunk_override();

/// Invoke `body(begin, end)` over a partition of [begin, end).
void parallel_for_range(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body);

/// Element-wise convenience: calls f(i) for every i in [begin, end).
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& f) {
  parallel_for_range(begin, end, [&f](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) f(i);
  });
}

/// Deterministic parallel sum-reduction of f(i) over [begin, end).
double parallel_reduce_sum(std::size_t begin, std::size_t end,
                           const std::function<double(std::size_t)>& f);

}  // namespace snnskip
