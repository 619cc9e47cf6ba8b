#include "common/trace.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vexus {
namespace {

TEST(TraceTest, RootOnlyTree) {
  Trace trace("request");
  trace.Finish();
  std::vector<Trace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].start_us, 0);
  EXPECT_GE(spans[0].duration_us, 0);
  EXPECT_EQ(trace.total_us(), spans[0].duration_us);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceTest, ChildSpansRecordParentsAndDurations) {
  Trace trace("request");
  {
    TraceSpan root = trace.root();
    ASSERT_TRUE(root.enabled());
    TraceSpan a = root.Child("admit");
    a.Close();
    TraceSpan g = root.Child("greedy");
    TraceSpan seed = g.Child("seed");
    seed.Close();
    g.Close();
  }
  trace.Finish();
  std::vector<Trace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[1].name, "admit");
  EXPECT_EQ(spans[1].parent, Trace::kRootIndex);
  EXPECT_STREQ(spans[2].name, "greedy");
  EXPECT_EQ(spans[2].parent, Trace::kRootIndex);
  EXPECT_STREQ(spans[3].name, "seed");
  EXPECT_EQ(spans[3].parent, 2);
  for (const Trace::Span& s : spans) {
    EXPECT_GE(s.duration_us, 0) << s.name;  // all closed
    EXPECT_GE(s.start_us, 0) << s.name;
  }
  // Creation order: a span's parent always precedes it.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].parent, static_cast<int32_t>(i));
    EXPECT_GE(spans[i].parent, 0);
  }
}

TEST(TraceTest, DisabledSpanIsANoOp) {
  TraceSpan disabled;
  EXPECT_FALSE(disabled.enabled());
  TraceSpan child = disabled.Child("anything");
  EXPECT_FALSE(child.enabled());
  child.AddCount(42);  // must not crash
  child.Close();
  disabled.Close();
  EXPECT_EQ(disabled.Detach(), -1);
  TraceSpan adopted = TraceSpan::Adopt(nullptr, 3);
  EXPECT_FALSE(adopted.enabled());
}

TEST(TraceTest, ViewDoesNotCloseOnDestruction) {
  Trace trace("request");
  {
    TraceSpan borrowed = trace.root();  // root() is a View
    EXPECT_TRUE(borrowed.enabled());
  }  // destroyed here — must NOT close the root
  std::vector<Trace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration_us, -1) << "root closed by a borrowed view";
  trace.Finish();
  EXPECT_GE(trace.spans()[0].duration_us, 0);
}

TEST(TraceTest, ArenaCapDropsSubtreesAndCounts) {
  Trace trace("request", /*max_spans=*/3);  // root + 2 children
  TraceSpan root = trace.root();
  TraceSpan a = root.Child("a");
  TraceSpan b = root.Child("b");
  TraceSpan c = root.Child("c");  // arena full — dropped
  EXPECT_TRUE(a.enabled());
  EXPECT_TRUE(b.enabled());
  EXPECT_FALSE(c.enabled());
  // Children of a dropped span are dropped silently without counting twice:
  // c is disabled so its Child() never reaches the arena.
  TraceSpan cc = c.Child("cc");
  EXPECT_FALSE(cc.enabled());
  // But another direct attempt on a live span does count.
  TraceSpan d = a.Child("d");
  EXPECT_FALSE(d.enabled());
  EXPECT_EQ(trace.dropped(), 2u);
  trace.Finish();
  EXPECT_EQ(trace.spans().size(), 3u);
}

TEST(TraceTest, FinishClosesOpenSpans) {
  Trace trace("request");
  TraceSpan root = trace.root();
  TraceSpan left_open = root.Child("greedy");
  ASSERT_TRUE(left_open.enabled());
  trace.Finish();  // deadline-truncated request: span never Close()d
  std::vector<Trace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[0].duration_us, 0);
  EXPECT_GE(spans[1].duration_us, 0);
  // Child opened after the epoch; its duration cannot exceed the root's.
  EXPECT_LE(spans[1].start_us + spans[1].duration_us,
            spans[0].start_us + spans[0].duration_us);
  // Closing the handle afterwards must not resurrect or re-close anything.
  int64_t frozen = spans[1].duration_us;
  left_open.Close();
  EXPECT_EQ(trace.spans()[1].duration_us, frozen);
}

TEST(TraceTest, FinishIsIdempotent) {
  Trace trace("request");
  trace.Finish();
  int64_t total = trace.total_us();
  trace.Finish();
  EXPECT_EQ(trace.total_us(), total);
}

TEST(TraceTest, CloseIsIdempotentAndFreezesDuration) {
  Trace trace("request");
  TraceSpan root = trace.root();
  TraceSpan child = root.Child("serialize");
  child.Close();
  int64_t frozen = trace.spans()[1].duration_us;
  EXPECT_GE(frozen, 0);
  child.Close();  // handle already disabled — no-op
  EXPECT_EQ(trace.spans()[1].duration_us, frozen);
}

TEST(TraceTest, DetachAdoptCarriesALiveSpan) {
  Trace trace("request");
  int32_t idx = trace.root().Child("queue").Detach();
  ASSERT_GE(idx, 0);
  // Detached span stays open even though every handle is gone.
  EXPECT_EQ(trace.spans()[idx].duration_us, -1);
  {
    TraceSpan adopted = TraceSpan::Adopt(&trace, idx);
    EXPECT_TRUE(adopted.enabled());
  }  // adopted handle is owned: destruction closes the span
  EXPECT_GE(trace.spans()[idx].duration_us, 0);
}

TEST(TraceTest, MoveTransfersOwnership) {
  Trace trace("request");
  TraceSpan root = trace.root();
  TraceSpan a = root.Child("a");
  TraceSpan b = std::move(a);
  EXPECT_FALSE(a.enabled());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.enabled());
  a.Close();  // moved-from handle: no-op
  EXPECT_EQ(trace.spans()[1].duration_us, -1) << "closed via moved-from handle";
  b.Close();
  EXPECT_GE(trace.spans()[1].duration_us, 0);
}

TEST(TraceTest, AddCountAccumulates) {
  Trace trace("request");
  TraceSpan root = trace.root();
  TraceSpan pass = root.Child("pass");
  pass.AddCount(10);
  pass.AddCount(32);
  pass.Close();
  trace.Finish();
  EXPECT_EQ(trace.spans()[1].count, 42u);
  EXPECT_EQ(trace.spans()[0].count, 0u);
}

TEST(TraceTest, ConcurrentChildCreationIsSafe) {
  // A fan-out may open spans from pool workers; creation and close must be
  // data-race-free (run under TSan in CI).
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  Trace trace("request", /*max_spans=*/1 + kThreads * kSpansPerThread);
  std::atomic<int> go{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&trace, &go] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }
      TraceSpan root = trace.root();
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan s = root.Child("shard");
        s.AddCount(1);
        s.Close();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  trace.Finish();
  std::vector<Trace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u + kThreads * kSpansPerThread);
  EXPECT_EQ(trace.dropped(), 0u);
  uint64_t total_count = 0;
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent, Trace::kRootIndex);
    EXPECT_GE(spans[i].duration_us, 0);
    total_count += spans[i].count;
  }
  EXPECT_EQ(total_count, static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

}  // namespace
}  // namespace vexus
