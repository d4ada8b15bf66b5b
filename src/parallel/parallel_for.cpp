#include "parallel/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>

#include "parallel/thread_pool.h"

namespace snnskip {

namespace {
std::atomic<std::size_t> g_chunk_override{0};

// Runs the caller's own chunk, then waits for every pooled chunk before
// rethrowing the first exception (the caller's, else the lowest chunk's).
// The pooled tasks borrow the caller's callable, so none may still be
// running when an exception unwinds the frame that owns it.
template <typename F>
void run_then_join(F&& own_chunk, std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  try {
    own_chunk();
  } catch (...) {
    first = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}
}  // namespace

void set_parallel_chunk_override(std::size_t k) {
  g_chunk_override.store(k, std::memory_order_relaxed);
}
std::size_t parallel_chunk_override() {
  return g_chunk_override.load(std::memory_order_relaxed);
}

void parallel_for_range(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t workers = pool.size();
  const std::size_t forced = parallel_chunk_override();
  if (forced == 0 && (n < kParallelForMinGrain || workers <= 1)) {
    body(begin, end);
    return;
  }
  const std::size_t chunks =
      forced != 0 ? std::min(forced, n) : std::min(workers, n);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;

  if (ThreadPool::on_worker_thread()) {
    // Nested parallel region (e.g. a tensor kernel inside a data-parallel
    // shard or candidate task already running ON a pool thread). Submitting
    // sub-chunks here could deadlock: every pool thread may be blocked in
    // this same f.get() with the sub-chunks stuck behind them in the queue.
    // Run the identical chunk decomposition inline instead — same
    // partition boundaries (the bit-for-bit guarantees of chunked kernels
    // are partition-determined), zero extra threads.
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t b = begin + c * chunk;
      const std::size_t e = std::min(end, b + chunk);
      if (b >= e) break;
      body(b, e);
    }
    return;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  // Chunks 1..k-1 go to the pool; chunk 0 runs on the caller.
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t b = begin + c * chunk;
    const std::size_t e = std::min(end, b + chunk);
    if (b >= e) break;
    futures.push_back(pool.submit([&body, b, e] { body(b, e); }));
  }
  run_then_join([&] { body(begin, std::min(end, begin + chunk)); }, futures);
}

double parallel_reduce_sum(std::size_t begin, std::size_t end,
                           const std::function<double(std::size_t)>& f) {
  if (begin >= end) return 0.0;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t workers = pool.size();
  const std::size_t forced = parallel_chunk_override();
  if (forced == 0 && (n < kParallelForMinGrain || workers <= 1)) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += f(i);
    return acc;
  }
  const std::size_t chunks =
      forced != 0 ? std::min(forced, n) : std::min(workers, n);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<double> partial(chunks, 0.0);

  auto run_chunk = [&](std::size_t c) {
    const std::size_t b = begin + c * chunk;
    const std::size_t e = std::min(end, b + chunk);
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += f(i);
    partial[c] = acc;
  };

  if (ThreadPool::on_worker_thread()) {
    // Nested-submit guard (see parallel_for_range): same chunked partials,
    // computed serially — the chunk-ordered merge below keeps the result
    // bitwise identical to the pooled execution.
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(chunks - 1);
    for (std::size_t c = 1; c < chunks; ++c) {
      futures.push_back(pool.submit([&run_chunk, c] { run_chunk(c); }));
    }
    run_then_join([&] { run_chunk(0); }, futures);
  }

  // Merge in fixed chunk order => bitwise-deterministic result.
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

}  // namespace snnskip
