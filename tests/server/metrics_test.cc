#include "server/metrics.h"

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vexus::server {
namespace {

TEST(LatencyHistogramTest, CountSumMax) {
  LatencyHistogram h;
  h.Record(1000);   // 1 ms
  h.Record(3000);   // 3 ms
  h.Record(500);    // 0.5 ms
  auto s = h.Read();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum_ms, 4.5, 1e-9);
  EXPECT_NEAR(s.max_ms, 3.0, 1e-9);
  EXPECT_NEAR(s.MeanMillis(), 1.5, 1e-9);
}

TEST(LatencyHistogramTest, QuantilesAreConservativeUpperBounds) {
  LatencyHistogram h;
  // 100 samples at ~1ms (bucket [2^9, 2^10) us), 1 sample at ~100ms.
  for (int i = 0; i < 100; ++i) h.Record(900);
  h.Record(100'000);
  auto s = h.Read();
  // p50 must cover the 900us samples: upper bound 1024us = 1.024ms.
  double p50 = s.QuantileMillis(0.50);
  EXPECT_GE(p50, 0.9);
  EXPECT_LE(p50, 1.1);
  // p99+ lands at/near the slow tail but never above observed max.
  EXPECT_LE(s.QuantileMillis(0.999), s.max_ms + 1e-9);
  EXPECT_GE(s.QuantileMillis(0.999), p50);
}

TEST(LatencyHistogramTest, EmptyAndDegenerateInputs) {
  LatencyHistogram h;
  EXPECT_EQ(h.Read().QuantileMillis(0.5), 0);
  h.Record(-5);                 // clamped to 0
  h.Record(std::numeric_limits<double>::quiet_NaN());
  auto s = h.Read();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[0], 2u);
}

TEST(LatencyHistogramTest, EmptyWindowQuantilesPinnedToZeroForAnyQ) {
  // An empty window (a get_stats before any request of that op finished)
  // must produce hard zeros for every q — including out-of-range and NaN —
  // never NaN/garbage artifacts in the stats JSON.
  LatencyHistogram h;
  auto empty = h.Read();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double q : {0.0, 0.5, 0.99, -1.0, 2.0, kNan}) {
    double v = empty.QuantileMillis(q);
    EXPECT_EQ(v, 0.0) << "q=" << q;
    EXPECT_FALSE(std::isnan(v)) << "q=" << q;
  }
  EXPECT_EQ(empty.MeanMillis(), 0.0);

  // NaN q against a NON-empty window used to slip through std::clamp (both
  // comparisons false) into `static_cast<uint64_t>(ceil(NaN * count))` —
  // UB the sanitizers flag. Pinned to 0 like the empty window.
  h.Record(900);
  auto one = h.Read();
  EXPECT_EQ(one.QuantileMillis(kNan), 0.0);
  EXPECT_GT(one.QuantileMillis(0.5), 0.0);
}

TEST(ServiceMetricsTest, OutcomeCountersRouteByCode) {
  ServiceMetrics m;
  m.RecordRequest(RequestType::kStartSession, StatusCode::kOk, 1.0);
  m.RecordRequest(RequestType::kSelectGroup, StatusCode::kOk, 2.0);
  m.RecordRequest(RequestType::kSelectGroup, StatusCode::kDeadlineExceeded,
                  3.0);
  m.RecordRequest(RequestType::kSelectGroup, StatusCode::kNotFound, 0.1);
  m.RecordRequest(RequestType::kGetStats, StatusCode::kResourceExhausted, 0.0);
  m.RecordRequest(RequestType::kUnlearn, StatusCode::kInvalidArgument, 0.2);
  m.RecordEvictionTtl();
  m.RecordEvictionLru();
  m.RecordEvictionLru();
  m.RecordAdmissionRejected();
  m.RecordGreedyDeadlineHit();
  m.RecordGreedyDeadlineHit();
  m.RecordGreedySeedTruncation();
  m.RecordGreedyRun(/*evaluations=*/120, /*passes=*/3, /*swaps=*/2);
  m.RecordGreedyRun(/*evaluations=*/80, /*passes=*/1, /*swaps=*/0);
  m.RecordScreenMemoHit();
  m.RecordScreenMemoHit();
  m.RecordScreenMemoResume();

  auto s = m.Snapshot(/*open_sessions=*/5);
  EXPECT_EQ(s.TotalRequests(), 6u);
  EXPECT_EQ(s.ok, 2u);
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.not_found, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.other_errors, 1u);
  EXPECT_EQ(s.evictions_ttl, 1u);
  EXPECT_EQ(s.evictions_lru, 2u);
  EXPECT_EQ(s.admission_rejected, 1u);
  EXPECT_EQ(s.greedy_deadline_hits, 2u);
  EXPECT_EQ(s.greedy_seed_truncations, 1u);
  EXPECT_EQ(s.greedy_runs, 2u);
  EXPECT_EQ(s.greedy_evaluations, 200u);
  EXPECT_EQ(s.greedy_passes, 4u);
  EXPECT_EQ(s.greedy_swaps, 2u);
  EXPECT_EQ(s.screen_memo_hits, 2u);
  EXPECT_EQ(s.screen_memo_resumes, 1u);
  EXPECT_TRUE(s.screen_memo_entries.empty()) << "the owner's gauge";
  EXPECT_EQ(s.open_sessions, 5u);
  EXPECT_EQ(
      s.requests_by_type[static_cast<size_t>(RequestType::kSelectGroup)], 3u);
  EXPECT_EQ(s.latency_all.count, 6u);
}

TEST(ServiceMetricsTest, ConcurrentRecordingLosesNothing) {
  ServiceMetrics m;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.RecordRequest(RequestType::kSelectGroup, StatusCode::kOk,
                        0.5 + (i % 10));
      }
    });
  }
  for (auto& th : threads) th.join();
  auto s = m.Snapshot();
  EXPECT_EQ(s.TotalRequests(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(s.ok, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.latency_all.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, uint64_t{kThreads} * kPerThread);
}

TEST(MetricsSnapshotTest, RendersTableAndJson) {
  ServiceMetrics m;
  m.RecordRequest(RequestType::kStartSession, StatusCode::kOk, 1.5);
  m.RecordGreedyRun(42, 3, 1);
  m.RecordGreedyDeadlineHit();
  m.RecordGreedySeedTruncation();
  m.RecordScreenMemoHit();
  auto s = m.Snapshot(1);
  s.screen_memo_entries = {1, 3, 2};
  std::string table = s.ToString();
  EXPECT_NE(table.find("start_session"), std::string::npos);
  EXPECT_NE(table.find("ALL"), std::string::npos);

  json::Value j = s.ToJson();
  EXPECT_EQ(j.GetNumber("total_requests", -1), 1);
  EXPECT_EQ(j.GetNumber("ok", -1), 1);
  EXPECT_EQ(j.GetNumber("open_sessions", -1), 1);
  EXPECT_EQ(j.GetNumber("greedy_runs", -1), 1);
  EXPECT_EQ(j.GetNumber("greedy_evaluations", -1), 42);
  EXPECT_EQ(j.GetNumber("greedy_passes", -1), 3);
  EXPECT_EQ(j.GetNumber("greedy_swaps", -1), 1);
  EXPECT_EQ(j.GetNumber("greedy_deadline_hits", -1), 1);
  EXPECT_EQ(j.GetNumber("greedy_seed_truncations", -1), 1);
  EXPECT_NE(s.ToString().find("greedy_seed_truncations=1"), std::string::npos);
  EXPECT_NE(s.ToString().find("greedy: runs=1"), std::string::npos);
  EXPECT_NE(s.ToString().find("screen_memo_hits=1"), std::string::npos);
  EXPECT_NE(s.ToString().find("entries by path length: 1 3 2"),
            std::string::npos);
  const json::Value* screen_memo = j.Find("screen_memo");
  ASSERT_NE(screen_memo, nullptr);
  EXPECT_EQ(screen_memo->GetNumber("hits", -1), 1);
  EXPECT_EQ(screen_memo->GetNumber("resumes", -1), 0);
  const json::Value* entries = screen_memo->Find("entries_by_path_length");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  ASSERT_EQ(entries->AsArray().size(), 3u);
  EXPECT_EQ(entries->AsArray()[1].AsDouble(), 3);
  const json::Value* by_op = j.Find("by_op");
  ASSERT_NE(by_op, nullptr);
  EXPECT_NE(by_op->Find("start_session"), nullptr);
  EXPECT_EQ(by_op->Find("unlearn"), nullptr);  // zero-count ops elided
  // The whole snapshot must be wire-encodable.
  auto parsed = json::Parse(j.Dump());
  EXPECT_TRUE(parsed.ok());
}

}  // namespace
}  // namespace vexus::server
