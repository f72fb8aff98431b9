// util::ThreadPool: exact-once index coverage, caller participation,
// inline degeneration at 1 thread, exception propagation, reuse, and
// per-lane copies of the callback.
#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

using mobile::util::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(ThreadPool, GrainChunksStillCoverEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.parallelFor(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*grain=*/37);
  long total = 0;
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(total, 1000);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  // Order must be exactly sequential when no workers exist.
  std::vector<std::size_t> order;
  pool.parallelFor(8, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 41)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives and is reusable after a throwing job.
  std::atomic<int> count{0};
  pool.parallelFor(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int job = 0; job < 20; ++job)
    pool.parallelFor(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(sum.load(), 20 * (63 * 64 / 2));
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  pool.parallelFor(0, [&](std::size_t) { FAIL(); });
}

// A lane that read the caller's callback object per index could share a
// cache line with the caller's hot stack slots; each lane calls a copy.
TEST(ThreadPool, EveryLaneCallsItsOwnCopy) {
  struct Body {
    const Body* const* original;
    std::atomic<int>* onOriginal;
    void operator()(std::size_t) const {
      if (this == *original) onOriginal->fetch_add(1);
    }
  };
  for (const int threads : {2, 4}) {
    ThreadPool pool(threads);
    std::atomic<int> onOriginal{0};
    const Body* original = nullptr;
    const std::function<void(std::size_t)> fn = Body{&original, &onOriginal};
    original = fn.target<Body>();
    ASSERT_NE(original, nullptr);
    pool.parallelFor(1000, fn, /*grain=*/7);
    EXPECT_EQ(onOriginal.load(), 0) << threads;
  }
}
