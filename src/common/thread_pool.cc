#include "common/thread_pool.h"

#include <algorithm>

#include "common/failpoint.h"

namespace vexus {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_ && joined_) return;
    shutdown_ = true;
  }
  work_cv_.notify_all();
  {
    // Only one caller joins; concurrent Shutdown() calls wait on done_cv_
    // until the joiner finishes (joining the same std::thread twice is UB).
    std::unique_lock<std::mutex> lock(mutex_);
    if (joining_) {
      done_cv_.wait(lock, [this] { return joined_; });
      return;
    }
    joining_ = true;
  }
  for (auto& t : workers_) t.join();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    joined_ = true;
  }
  done_cv_.notify_all();
}

bool ThreadPool::Submit(std::function<void()> task) {
  // Simulates pool exhaustion / a shutdown race: the caller sees the same
  // `false` it would get from a pool that is tearing down.
  if (VEXUS_FAILPOINT_FIRES("threadpool.submit")) return false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) return false;  // shedding: see header contract
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t chunk_size,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;

  // Shared between the caller and helper tasks. Heap-allocated + shared so a
  // helper that only gets scheduled after the caller has returned (its
  // chunks were all drained by faster threads) still finds live state: it
  // observes an exhausted cursor and exits without touching anything else.
  struct State {
    std::function<void(size_t, size_t, size_t)> fn;  // copy: outlives caller
    size_t n = 0, chunk_size = 0, num_chunks = 0;
    std::atomic<size_t> cursor{0};
    std::atomic<size_t> done{0};
    std::mutex m;
    std::condition_variable cv;
  };
  auto st = std::make_shared<State>();
  st->fn = fn;
  st->n = n;
  st->chunk_size = chunk_size;
  st->num_chunks = num_chunks;

  auto drain = [st] {
    while (true) {
      size_t c = st->cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= st->num_chunks) return;
      size_t begin = c * st->chunk_size;
      size_t end = std::min(st->n, begin + st->chunk_size);
      st->fn(c, begin, end);
      if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          st->num_chunks) {
        // Last chunk: wake the caller. Lock pairs with the caller's wait so
        // the notify cannot slip between its predicate check and sleep.
        std::lock_guard<std::mutex> lock(st->m);
        st->cv.notify_all();
      }
    }
  };

  // Helpers are best-effort accelerators: a rejected Submit (shutdown race)
  // or a busy pool just means the caller drains more chunks itself.
  size_t helpers = std::min(workers_.size(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    if (!Submit(drain)) break;
  }
  drain();
  std::unique_lock<std::mutex> lock(st->m);
  st->cv.wait(lock, [&] {
    return st->done.load(std::memory_order_acquire) == st->num_chunks;
  });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace vexus
