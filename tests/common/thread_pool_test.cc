#include "common/thread_pool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace vexus {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDrains) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 40);  // queued work ran before the join
  pool.Shutdown();                // second call is a no-op
  EXPECT_EQ(counter.load(), 40);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejectedNotLost) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> counter{0};
  EXPECT_FALSE(pool.Submit([&counter] { ++counter; }));
  EXPECT_EQ(counter.load(), 0);  // rejected task must never run
}

TEST(ThreadPoolTest, SubmitDuringConcurrentShutdownNeverLosesAcceptedWork) {
  // Hammer Submit from many threads while another thread shuts the pool
  // down: every accepted task must run exactly once, every rejected task
  // must never run, and nothing may deadlock.
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 8; ++t) {
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 200; ++i) {
          if (pool.Submit([&executed] { ++executed; })) {
            ++accepted;
          }
        }
      });
    }
    std::thread closer([&] {
      while (!go.load()) std::this_thread::yield();
      pool.Shutdown();
    });
    go.store(true);
    for (auto& th : submitters) th.join();
    closer.join();
    pool.Shutdown();  // ensure fully drained before counting
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(ThreadPoolTest, WaitUnderContention) {
  // Wait() racing fresh submissions from other threads must return only
  // when the queue it observes is empty, and must not miss wakeups.
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<bool> stop{false};
  // Guarantee at least one task regardless of scheduling: on a single-core
  // host the churner thread may not run at all before the main thread
  // finishes its 50 Wait() calls, which made the final counter>0 check
  // flaky (the race being probed is Wait-vs-Submit, not thread startup).
  ASSERT_TRUE(pool.Submit([&counter] { ++counter; }));
  std::thread churner([&] {
    while (!stop.load()) {
      if (!pool.Submit([&counter] { ++counter; })) break;
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 50; ++i) pool.Wait();
  stop.store(true);
  churner.join();
  pool.Wait();  // final drain: no submitter left, so this quiesces
  EXPECT_GT(counter.load(), 0);
}

TEST(ThreadPoolTest, ParallelForChunkedCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForChunked(1000, 16,
                          [&hits](size_t, size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) ++hits[i];
                          });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkedChunkBoundariesAreDeterministic) {
  // Chunk index → [begin,end) mapping must be a pure function of
  // (n, chunk_size): the greedy scan's deterministic argmax reduction folds
  // per-chunk results in chunk order and relies on this.
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> ranges(7, {SIZE_MAX, SIZE_MAX});
  pool.ParallelForChunked(100, 16,
                          [&ranges](size_t c, size_t begin, size_t end) {
                            ranges[c] = {begin, end};
                          });
  for (size_t c = 0; c < 7; ++c) {
    EXPECT_EQ(ranges[c].first, c * 16);
    EXPECT_EQ(ranges[c].second, std::min<size_t>(100, c * 16 + 16));
  }
}

TEST(ThreadPoolTest, ParallelForChunkedZeroIsNoopAndZeroChunkClamped) {
  ThreadPool pool(2);
  pool.ParallelForChunked(0, 8, [](size_t, size_t, size_t) {
    FAIL() << "should not run";
  });
  std::atomic<int> covered{0};
  pool.ParallelForChunked(5, 0, [&covered](size_t, size_t begin, size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 5);
}

TEST(ThreadPoolTest, ParallelForChunkedNestableFromPoolWorker) {
  // The dispatcher runs request handlers ON pool workers, and the greedy
  // scan fans out from there. A pool-global wait would deadlock here; the
  // caller-participates design must complete even when every worker is busy.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_done{0};
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(pool.Submit([&] {
      pool.ParallelForChunked(64, 8, [&](size_t, size_t begin, size_t end) {
        inner_total += static_cast<int>(end - begin);
      });
      ++outer_done;
    }));
  }
  pool.Wait();
  EXPECT_EQ(outer_done.load(), 4);
  EXPECT_EQ(inner_total.load(), 4 * 64);
}

TEST(ThreadPoolTest, ParallelForChunkedAfterShutdownRunsInline) {
  // Helper submission is rejected after shutdown; the calling thread must
  // still drain every chunk itself (the serving layer may race teardown).
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> covered{0};
  pool.ParallelForChunked(37, 5, [&covered](size_t, size_t begin, size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 37);
}

}  // namespace
}  // namespace vexus
