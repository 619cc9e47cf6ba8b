#include "server/trace_log.h"

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::server {
namespace {

std::shared_ptr<const Trace> FinishedTrace() {
  auto trace = std::make_shared<Trace>("request");
  {
    TraceSpan root = trace->root();
    TraceSpan greedy = root.Child("greedy");
    greedy.AddCount(7);
    greedy.Close();
  }
  trace->Finish();
  return trace;
}

TraceRecord MakeRecord(const std::string& op, double total_ms,
                       double budget_ms = 100.0) {
  TraceRecord r;
  r.op = op;
  r.status = "ok";
  r.budget_ms = budget_ms;
  r.total_ms = total_ms;
  r.queue_ms = 0.5;
  r.trace = FinishedTrace();
  return r;
}

TEST(TraceLogTest, DisabledLogRecordsNothing) {
  TraceLogOptions opts;
  opts.enabled = false;
  TraceLog log(opts);
  EXPECT_FALSE(log.enabled());
  log.Record(MakeRecord("start_session", 5));
  EXPECT_EQ(log.offered(), 0u);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.LastN(10).empty());
  EXPECT_TRUE(log.SlowestN(10).empty());
}

TEST(TraceLogTest, LastNReturnsNewestFirst) {
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 8;
  TraceLog log(opts);
  log.Record(MakeRecord("start_session", 1));
  log.Record(MakeRecord("select_group", 2));
  log.Record(MakeRecord("backtrack", 3));
  EXPECT_EQ(log.offered(), 3u);
  EXPECT_EQ(log.recorded(), 3u);

  std::vector<TraceRecord> last = log.LastN(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].op, "backtrack");
  EXPECT_EQ(last[0].seq, 3u);
  EXPECT_EQ(last[1].op, "select_group");
  EXPECT_EQ(last[1].seq, 2u);

  std::vector<TraceRecord> all = log.LastN(100);
  ASSERT_EQ(all.size(), 3u);  // never more than stored
  EXPECT_EQ(all[2].op, "start_session");
}

TEST(TraceLogTest, RingWrapsKeepingTheNewestRecords) {
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 4;
  TraceLog log(opts);
  for (int i = 1; i <= 10; ++i) {
    log.Record(MakeRecord(StrCat("op", i), /*total_ms=*/i));
  }
  EXPECT_EQ(log.recorded(), 10u);
  std::vector<TraceRecord> last = log.LastN(10);
  ASSERT_EQ(last.size(), 4u);  // ring capacity bounds retention
  EXPECT_EQ(last[0].seq, 10u);
  EXPECT_EQ(last[1].seq, 9u);
  EXPECT_EQ(last[2].seq, 8u);
  EXPECT_EQ(last[3].seq, 7u);
  EXPECT_EQ(last[0].op, "op10");
  EXPECT_EQ(last[3].op, "op7");
}

TEST(TraceLogTest, SlowestNOrdersByWallTimeWithRecencyTies) {
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 8;
  TraceLog log(opts);
  log.Record(MakeRecord("fast", 1));
  log.Record(MakeRecord("slow", 90));
  log.Record(MakeRecord("mid_old", 40));
  log.Record(MakeRecord("mid_new", 40));  // ties break toward recency
  std::vector<TraceRecord> slowest = log.SlowestN(3);
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].op, "slow");
  EXPECT_EQ(slowest[1].op, "mid_new");
  EXPECT_EQ(slowest[2].op, "mid_old");
}

TEST(TraceLogTest, SlowFractionFiltersFastRequests) {
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 8;
  opts.slow_fraction = 0.5;  // keep only requests using ≥ half their budget
  TraceLog log(opts);
  log.Record(MakeRecord("fast", /*total_ms=*/10, /*budget_ms=*/100));
  log.Record(MakeRecord("borderline", /*total_ms=*/50, /*budget_ms=*/100));
  log.Record(MakeRecord("slow", /*total_ms=*/99, /*budget_ms=*/100));
  // Unbounded budget (encoded as 0): no finite wall time is a fraction of
  // an infinite budget, so a nonzero threshold must exclude it.
  log.Record(MakeRecord("unbounded", /*total_ms=*/5000, /*budget_ms=*/0));
  EXPECT_EQ(log.offered(), 4u);
  EXPECT_EQ(log.recorded(), 2u);
  std::vector<TraceRecord> last = log.LastN(10);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].op, "slow");
  EXPECT_EQ(last[1].op, "borderline");
}

TEST(TraceLogTest, ZeroSlowFractionRecordsUnboundedBudgets) {
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 4;
  opts.slow_fraction = 0.0;
  TraceLog log(opts);
  log.Record(MakeRecord("unbounded", /*total_ms=*/5, /*budget_ms=*/0));
  EXPECT_EQ(log.recorded(), 1u);
}

TEST(TraceLogTest, ConcurrentWritersNeverTearOrLoseSequence) {
  // 8 writers × 200 records into a 32-slot ring: every Record() must be
  // counted, every surviving slot must hold an untorn record with a
  // distinct seq, and LastN must stay newest-first. Run under TSan in CI.
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 200;
  TraceLogOptions opts;
  opts.enabled = true;
  opts.capacity = 32;
  TraceLog log(opts);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.Record(MakeRecord(StrCat("w", w), /*total_ms=*/i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(log.offered(), static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(log.recorded(), static_cast<uint64_t>(kWriters) * kPerWriter);

  std::vector<TraceRecord> last = log.LastN(64);
  EXPECT_LE(last.size(), 32u);
  EXPECT_FALSE(last.empty());
  std::set<uint64_t> seqs;
  for (size_t i = 0; i < last.size(); ++i) {
    const TraceRecord& r = last[i];
    EXPECT_TRUE(r.valid());
    EXPECT_LE(r.seq, static_cast<uint64_t>(kWriters) * kPerWriter);
    EXPECT_TRUE(seqs.insert(r.seq).second) << "duplicate seq " << r.seq;
    EXPECT_NE(r.trace, nullptr);
    EXPECT_EQ(r.op.substr(0, 1), "w");  // untorn op string
    if (i > 0) {
      EXPECT_LT(r.seq, last[i - 1].seq);  // newest first
    }
  }
}

TEST(TraceLogTest, ToJsonEmitsFlatSpanTree) {
  TraceRecord r = MakeRecord("select_group", 42.5);
  r.seq = 9;
  r.session_id = "alice";
  json::Value v = TraceLog::ToJson(r);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetNumber("seq", -1), 9.0);
  EXPECT_EQ(v.GetString("op", ""), "select_group");
  EXPECT_EQ(v.GetString("session", ""), "alice");
  EXPECT_EQ(v.GetString("status", ""), "ok");
  EXPECT_DOUBLE_EQ(v.GetNumber("total_ms", -1), 42.5);
  EXPECT_DOUBLE_EQ(v.GetNumber("queue_ms", -1), 0.5);

  const json::Value* spans = v.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->AsArray().size(), 2u);  // request + greedy
  const json::Value& root = spans->AsArray()[0];
  EXPECT_EQ(root.GetString("name", ""), "request");
  EXPECT_EQ(root.GetNumber("parent", -2), -1.0);
  EXPECT_GE(root.GetNumber("duration_us", -1), 0.0);
  const json::Value& greedy = spans->AsArray()[1];
  EXPECT_EQ(greedy.GetString("name", ""), "greedy");
  EXPECT_EQ(greedy.GetNumber("parent", -2), 0.0);
  EXPECT_EQ(greedy.GetNumber("count", -1), 7.0);

  // Session-less record omits the "session" key.
  TraceRecord anon = MakeRecord("get_stats", 1);
  anon.seq = 1;
  EXPECT_EQ(TraceLog::ToJson(anon).Find("session"), nullptr);
}

}  // namespace
}  // namespace vexus::server
