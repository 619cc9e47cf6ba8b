// Fixed-size thread pool used by offline pre-processing (mining and index
// construction fan out through ParallelForChunked; experiment E7), by the
// serving layer's dispatcher (src/server/dispatcher.h), which routes
// per-request work onto the pool, and by the gather coordinator, which fans
// one lap out to its shards from concurrent request handlers
// (src/server/gather.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vexus {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 -> hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Equivalent to Shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Drains already-queued work, then joins all workers. Idempotent; called
  /// by the destructor. After Shutdown() returns, Submit() rejects new work
  /// — the serving-layer dispatcher relies on this to shed requests with
  /// RESOURCE_EXHAUSTED instead of losing them silently during teardown.
  void Shutdown();

  /// Enqueues a task. Tasks must not throw. Returns false — without
  /// enqueueing — once shutdown has begun; the task is simply dropped, so
  /// callers that must observe completion (e.g. a promise-completing
  /// wrapper) must handle the rejection themselves.
  [[nodiscard]] bool Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs fn(chunk, begin, end) for contiguous chunks of `chunk_size`
  /// indices covering [0, n), then returns once every index has run.
  ///
  /// Safe on a *shared* pool (the gather coordinator's pool serves every
  /// request handler's lap at once) and from within a pool worker: chunks
  /// are dealt through an atomic cursor and the *calling thread
  /// participates* in the chunk loop, so completion never depends on a free
  /// worker, and the final wait is scoped to this call's chunks rather than
  /// pool-global. Chunk boundaries are deterministic functions of (n,
  /// chunk_size); which thread runs a chunk is not — callers that need a
  /// deterministic reduction should write per-chunk results into a
  /// chunk-indexed array and fold it in chunk order afterwards (this is how
  /// LCM mining and the index build stay byte-identical to serial).
  void ParallelForChunked(
      size_t n, size_t chunk_size,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   // signals workers
  std::condition_variable done_cv_;   // signals Wait()
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  bool joining_ = false;  // a Shutdown() caller owns the join
  bool joined_ = false;   // the join completed
};

}  // namespace vexus
