// Minimal work-sharing thread pool for the simulator and experiment driver.
//
// Two consumers with very different grain sizes share this pool: the round
// engine parallelizes its send/receive phases over nodes (tiny work items,
// chunked), and the experiment driver fans whole trials out (large work
// items, one at a time).  `parallelFor` serves both via an atomic cursor
// with a caller-chosen grain.
//
// Concurrency contract: a pool of `numThreads` executes `parallelFor`
// bodies on `numThreads - 1` worker threads PLUS the calling thread, so
// `ThreadPool(1)` spawns no threads at all and runs everything inline --
// the sequential path stays byte-for-byte the sequential path.  The
// callback must be safe to invoke concurrently for distinct indices; the
// pool guarantees each index in [0, n) is executed exactly once.  Each
// lane calls its own copy of the callback, so capture by value.
// Exceptions thrown by the callback are captured and the first one is
// rethrown on the calling thread after all workers go idle.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace mobile::util {

class ThreadPool {
 public:
  /// `numThreads` <= 1 means fully inline execution (no threads spawned).
  explicit ThreadPool(int numThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes including the calling thread.
  [[nodiscard]] int size() const { return numThreads_; }

  /// Invokes fn(i) exactly once for every i in [0, n), spreading work over
  /// the pool; blocks until all indices complete.  `grain` is the number of
  /// consecutive indices a lane claims per atomic fetch -- use 1 for
  /// coarse items (whole trials), larger for per-node loops.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t grain = 1);

  /// A sensible default lane count: the hardware concurrency, at least 1.
  [[nodiscard]] static int hardwareThreads();

 private:
  // All thread/mutex machinery lives behind this so the header stays light.
  struct State;
  void workerLoop();

  int numThreads_ = 1;
  std::unique_ptr<State> state_;
};

}  // namespace mobile::util
