#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace mobile::util {

// One parallelFor invocation.  Lanes (workers + the caller) claim `grain`
// consecutive indices at a time from the atomic cursor until it passes n.
struct Job {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> lanesActive{0};
  std::mutex errMutex;
  std::exception_ptr firstError;

  void drain() {
    // Read per index off the caller's stack, the body could share a line the
    // caller's lane writes per call: whole runs 1.7x slower, at random.
    const std::function<void(std::size_t)> body = *fn;
    while (true) {
      const std::size_t begin = cursor.fetch_add(grain);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!firstError) firstError = std::current_exception();
        // Park the cursor past the end so every lane stops promptly.
        cursor.store(n);
      }
    }
  }
};

struct ThreadPool::State {
  std::mutex mutex;
  std::condition_variable wake;
  std::condition_variable idle;
  std::shared_ptr<Job> job;  // non-null while a parallelFor is in flight
  bool shutdown = false;
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(int numThreads)
    : numThreads_(std::max(1, numThreads)), state_(std::make_unique<State>()) {
  for (int t = 1; t < numThreads_; ++t)
    state_->workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->shutdown = true;
  }
  state_->wake.notify_all();
  for (auto& w : state_->workers) w.join();
}

int ThreadPool::hardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void ThreadPool::workerLoop() {
  // Holding the last-processed job (not just its address) makes the
  // "is this a new job?" test reliable: the next make_shared cannot reuse
  // the allocation while `last` still pins it, so a worker that finished a
  // job sleeps instead of busy-respinning on the still-published cursor
  // while the calling thread drains its final chunks.
  std::shared_ptr<Job> last;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->wake.wait(lock, [&] {
        return state_->shutdown || (state_->job && state_->job != last);
      });
      if (state_->shutdown) return;
      job = state_->job;
      job->lanesActive.fetch_add(1);
    }
    last = job;
    job->drain();
    {
      // Under the mutex so the publisher's idle-wait predicate can't miss
      // the final decrement.
      std::lock_guard<std::mutex> lock(state_->mutex);
      job->lanesActive.fetch_sub(1);
    }
    state_->idle.notify_all();
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  if (state_->workers.empty() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->job = job;
  }
  state_->wake.notify_all();

  // The calling thread is a lane too: with numThreads == 1 this degenerates
  // to the plain sequential loop above.
  job->drain();

  {
    // Unpublish, then wait for workers that picked the job up to finish
    // their final chunk.
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->job.reset();
    state_->idle.wait(lock, [&] { return job->lanesActive.load() == 0; });
  }

  if (job->firstError) std::rethrow_exception(job->firstError);
}

}  // namespace mobile::util
