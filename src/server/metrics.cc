#include "server/metrics.h"

#include <algorithm>
#include <cmath>

namespace vexus::server {

namespace {

/// Bucket index for a latency in microseconds: floor(log2(us)), clamped.
size_t BucketOf(double micros) {
  if (!(micros >= 1.0)) return 0;  // also catches NaN
  uint64_t us = static_cast<uint64_t>(micros);
  size_t bit = 63 - static_cast<size_t>(__builtin_clzll(us));
  return std::min(bit, kLatencyBuckets - 1);
}

constexpr std::string_view kStageNames[kNumStages] = {
    "queue", "admit", "session", "rank", "greedy", "serialize",
};

}  // namespace

std::string_view StageName(Stage s) {
  return kStageNames[static_cast<size_t>(s)];
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0 || std::isnan(micros)) micros = 0;
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<uint64_t>(micros),
                    std::memory_order_relaxed);
  uint64_t us = static_cast<uint64_t>(micros);
  uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us,
                                        std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Read() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_ms = static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1e3;
  s.max_ms = static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1e3;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double LatencyHistogram::Snapshot::QuantileMillis(double q) const {
  if (count == 0) return 0;
  // NaN slips through std::clamp (both comparisons are false) and would
  // reach the uint64_t cast below as NaN — UB. Pin it to 0 like the empty
  // window, the same edge-case discipline as bench Series::Percentile.
  if (std::isnan(q)) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      // Upper bound of bucket i: 2^(i+1) microseconds.
      double ub_us = static_cast<double>(uint64_t{1} << std::min<size_t>(
                         i + 1, 63));
      return std::min(ub_us / 1e3, max_ms > 0 ? max_ms : ub_us / 1e3);
    }
  }
  return max_ms;
}

void ServiceMetrics::RecordRequest(RequestType type, StatusCode code,
                                   double latency_ms) {
  size_t idx = static_cast<size_t>(type);
  requests_by_type_[idx].fetch_add(1, kRelaxed);
  switch (code) {
    case StatusCode::kOk: ok_.fetch_add(1, kRelaxed); break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1, kRelaxed);
      break;
    case StatusCode::kNotFound: not_found_.fetch_add(1, kRelaxed); break;
    case StatusCode::kResourceExhausted: shed_.fetch_add(1, kRelaxed); break;
    default: other_errors_.fetch_add(1, kRelaxed); break;
  }
  latency_by_type_[idx].Record(latency_ms * 1e3);
  latency_all_.Record(latency_ms * 1e3);
}

void ServiceMetrics::RecordTraceStages(const Trace& trace) {
  for (const Trace::Span& span : trace.spans()) {
    if (span.duration_us < 0) continue;  // still open: trace not finished
    for (size_t i = 0; i < kNumStages; ++i) {
      if (kStageNames[i] == span.name) {
        stage_latency_[i].Record(static_cast<double>(span.duration_us));
        break;
      }
    }
  }
}

MetricsSnapshot ServiceMetrics::Snapshot(uint64_t open_sessions) const {
  MetricsSnapshot s;
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    s.requests_by_type[i] = requests_by_type_[i].load(kRelaxed);
    s.latency_by_type[i] = latency_by_type_[i].Read();
  }
  s.ok = ok_.load(kRelaxed);
  s.deadline_exceeded = deadline_exceeded_.load(kRelaxed);
  s.not_found = not_found_.load(kRelaxed);
  s.shed = shed_.load(kRelaxed);
  s.other_errors = other_errors_.load(kRelaxed);
  s.evictions_ttl = evictions_ttl_.load(kRelaxed);
  s.evictions_lru = evictions_lru_.load(kRelaxed);
  s.admission_rejected = admission_rejected_.load(kRelaxed);
  s.greedy_deadline_hits = greedy_deadline_hits_.load(kRelaxed);
  s.greedy_seed_truncations = greedy_seed_truncations_.load(kRelaxed);
  s.greedy_runs = greedy_runs_.load(kRelaxed);
  s.greedy_evaluations = greedy_evaluations_.load(kRelaxed);
  s.greedy_passes = greedy_passes_.load(kRelaxed);
  s.greedy_swaps = greedy_swaps_.load(kRelaxed);
  s.screen_memo_hits = screen_memo_hits_.load(kRelaxed);
  s.screen_memo_resumes = screen_memo_resumes_.load(kRelaxed);
  s.degraded_effort = degraded_effort_.load(kRelaxed);
  s.degraded_k = degraded_k_.load(kRelaxed);
  s.degraded_stale = degraded_stale_.load(kRelaxed);
  s.degraded_partial = degraded_partial_.load(kRelaxed);
  s.overload_sheds = overload_sheds_.load(kRelaxed);
  s.open_sessions = open_sessions;
  s.latency_all = latency_all_.Read();
  for (size_t i = 0; i < kNumStages; ++i) {
    s.stage_latency[i] = stage_latency_[i].Read();
  }
  return s;
}

namespace {

json::Value LatencyJson(const LatencyHistogram::Snapshot& l) {
  json::Object o;
  o.emplace_back("count", json::Value(l.count));
  o.emplace_back("mean_ms", json::Value(l.MeanMillis()));
  o.emplace_back("p50_ms", json::Value(l.QuantileMillis(0.50)));
  o.emplace_back("p95_ms", json::Value(l.QuantileMillis(0.95)));
  o.emplace_back("p99_ms", json::Value(l.QuantileMillis(0.99)));
  o.emplace_back("max_ms", json::Value(l.max_ms));
  return json::Value(std::move(o));
}

}  // namespace

json::Value MetricsSnapshot::ToJson() const {
  json::Object o;
  o.emplace_back("total_requests", json::Value(TotalRequests()));
  o.emplace_back("ok", json::Value(ok));
  o.emplace_back("deadline_exceeded", json::Value(deadline_exceeded));
  o.emplace_back("not_found", json::Value(not_found));
  o.emplace_back("shed", json::Value(shed));
  o.emplace_back("other_errors", json::Value(other_errors));
  o.emplace_back("evictions_ttl", json::Value(evictions_ttl));
  o.emplace_back("evictions_lru", json::Value(evictions_lru));
  o.emplace_back("admission_rejected", json::Value(admission_rejected));
  o.emplace_back("greedy_deadline_hits", json::Value(greedy_deadline_hits));
  o.emplace_back("greedy_seed_truncations",
                 json::Value(greedy_seed_truncations));
  o.emplace_back("greedy_runs", json::Value(greedy_runs));
  o.emplace_back("greedy_evaluations", json::Value(greedy_evaluations));
  o.emplace_back("greedy_passes", json::Value(greedy_passes));
  o.emplace_back("greedy_swaps", json::Value(greedy_swaps));
  json::Object screen_memo;
  screen_memo.emplace_back("hits", json::Value(screen_memo_hits));
  screen_memo.emplace_back("resumes", json::Value(screen_memo_resumes));
  screen_memo.emplace_back("screens", json::Value(screen_memo_screens));
  screen_memo.emplace_back("records", json::Value(screen_memo_records));
  screen_memo.emplace_back("refused_full",
                           json::Value(screen_memo_refused_full));
  json::Array entries;
  for (uint64_t n : screen_memo_entries) entries.emplace_back(n);
  screen_memo.emplace_back("entries_by_path_length",
                           json::Value(std::move(entries)));
  o.emplace_back("screen_memo", json::Value(std::move(screen_memo)));
  o.emplace_back("degraded_effort", json::Value(degraded_effort));
  o.emplace_back("degraded_k", json::Value(degraded_k));
  o.emplace_back("degraded_stale", json::Value(degraded_stale));
  o.emplace_back("degraded_partial", json::Value(degraded_partial));
  o.emplace_back("overload_sheds", json::Value(overload_sheds));
  o.emplace_back("open_sessions", json::Value(open_sessions));
  json::Object by_type;
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    if (requests_by_type[i] == 0) continue;
    json::Object op;
    op.emplace_back("requests", json::Value(requests_by_type[i]));
    op.emplace_back("latency", LatencyJson(latency_by_type[i]));
    by_type.emplace_back(
        std::string(RequestTypeName(static_cast<RequestType>(i))),
        json::Value(std::move(op)));
  }
  o.emplace_back("by_op", json::Value(std::move(by_type)));
  o.emplace_back("latency", LatencyJson(latency_all));
  json::Object stages;
  for (size_t i = 0; i < kNumStages; ++i) {
    if (stage_latency[i].count == 0) continue;
    stages.emplace_back(std::string(StageName(static_cast<Stage>(i))),
                        LatencyJson(stage_latency[i]));
  }
  if (!stages.empty()) {
    o.emplace_back("stages", json::Value(std::move(stages)));
  }
  return json::Value(std::move(o));
}

}  // namespace vexus::server
