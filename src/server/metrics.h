// ServiceMetrics — lock-free observability for the exploration service.
//
// Atomic counters (requests by op and by outcome, evictions, sheds) plus
// fixed-bucket latency histograms (one per op + one aggregate). Buckets are
// powers of two in microseconds, so Record() is a subtract-free bit scan and
// quantile estimation is a cumulative walk at Snapshot() time — no locks on
// the request path, which keeps the serving-layer overhead invisible next to
// the paper's 100 ms continuity budget.
//
// Snapshot() is wait-free-ish: it reads each atomic with relaxed ordering,
// so a snapshot taken while traffic is in flight is a *consistent-enough*
// view (counts may straggle by the requests that landed mid-walk), and a
// snapshot taken after a quiesced workload is exact — the property
// tests/server/service_test.cc pins down.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/trace.h"
#include "server/json.h"
#include "server/protocol.h"

namespace vexus::server {

/// Request stages with dedicated latency histograms — the aggregate view of
/// the per-request span tree (common/trace.h). Names match the span
/// taxonomy, so `RecordTraceStages` can fold a finished trace in by walking
/// its spans.
enum class Stage : int {
  kQueue = 0,      ///< admission → worker pickup
  kAdmit = 1,      ///< session admission (start_session)
  kSession = 2,    ///< acquiring the exclusive session lease
  kRank = 3,       ///< candidate-pool construction + prior ranking
  kGreedy = 4,     ///< the anytime swap loop (seed + passes)
  kSerialize = 5,  ///< screen/context payload construction
};
inline constexpr size_t kNumStages = 6;

/// Stage name as used both in span trees and the get_stats "stages" object.
std::string_view StageName(Stage s);

/// Power-of-two latency buckets: bucket i counts samples in
/// [2^i, 2^(i+1)) microseconds (bucket 0 also takes sub-microsecond ones).
/// 2^31 us ≈ 36 min caps the range; slower requests clamp into the last
/// bucket.
inline constexpr size_t kLatencyBuckets = 32;

class LatencyHistogram {
 public:
  void Record(double micros);

  /// Plain-struct copy of the histogram for quantile math.
  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0;
    double max_ms = 0;
    std::array<uint64_t, kLatencyBuckets> buckets{};

    /// Quantile estimate (q in [0,1]): upper bound of the bucket holding the
    /// q-th sample, in milliseconds. Conservative (over-reports) by design —
    /// a latency SLO checked against it can only be stricter than reality.
    double QuantileMillis(double q) const;
    double MeanMillis() const {
      return count == 0 ? 0 : sum_ms / static_cast<double>(count);
    }
  };
  Snapshot Read() const;

 private:
  std::array<std::atomic<uint64_t>, kLatencyBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// Everything ServiceMetrics knows, frozen. Produced by Snapshot();
/// rendered as a JSON object (ToJson), which the get_stats op serves.
struct MetricsSnapshot {
  /// Requests that *completed* (any status), by op.
  std::array<uint64_t, kNumRequestTypes> requests_by_type{};
  /// Outcomes.
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;  // DEADLINE_EXCEEDED responses
  uint64_t not_found = 0;          // unknown/evicted/stale sessions
  uint64_t shed = 0;               // RESOURCE_EXHAUSTED via backpressure
  uint64_t other_errors = 0;       // anything else non-OK
  /// Session-manager events.
  uint64_t evictions_ttl = 0;
  uint64_t evictions_lru = 0;
  uint64_t admission_rejected = 0;
  /// Fresh greedy runs the deadline stopped; re-served screens not counted.
  uint64_t greedy_deadline_hits = 0;
  /// The subset of those runs whose seed stopped at the deadline before
  /// every candidate's prior was computed (GreedySelection::seed_truncated).
  uint64_t greedy_seed_truncations = 0;
  /// Anytime-greedy work counters, summed over every screen computed: runs
  /// (one per screen), trial-swap objective evaluations, refinement passes
  /// started (a deadline-cut one included), and applied swaps.
  /// evaluations/run is the live throughput of the incremental evaluator —
  /// a deploy that regresses it shows up here without a bench run.
  uint64_t greedy_runs = 0;
  uint64_t greedy_evaluations = 0;
  uint64_t greedy_passes = 0;
  uint64_t greedy_swaps = 0;
  /// Screens served from the engine's screen memo with no greedy run
  /// (hits, starts and selects), and selects whose greedy run continued a
  /// work record a deadline-cut run stored (resumes; DESIGN.md §8.5).
  uint64_t screen_memo_hits = 0;
  uint64_t screen_memo_resumes = 0;
  /// Gauges the owner fills at snapshot time (core::ScreenMemo::Stats):
  /// entries by kind (converged screens, work records), admissions refused
  /// because the memo was full, and entries by click path length, index 0
  /// (the first screen) up. The last is empty without a memo.
  uint64_t screen_memo_screens = 0;
  uint64_t screen_memo_records = 0;
  uint64_t screen_memo_refused_full = 0;
  std::vector<uint64_t> screen_memo_entries;
  /// Overload ladder (DESIGN.md §12): answers whose quality the controller
  /// reduced to stay inside the latency budget, by rung, plus admissions
  /// rejected *by the ladder's shed rung* (a subset of `shed`, which also
  /// counts the fixed queue-depth backstop and teardown sheds).
  uint64_t degraded_effort = 0;
  uint64_t degraded_k = 0;
  uint64_t degraded_stale = 0;
  /// Screens scored over a subset of the user universe because one or more
  /// gather shards missed their lap (DESIGN.md §16) — degraded:"partial".
  uint64_t degraded_partial = 0;
  uint64_t overload_sheds = 0;
  /// Live gauge at snapshot time.
  uint64_t open_sessions = 0;

  LatencyHistogram::Snapshot latency_by_type[kNumRequestTypes];
  LatencyHistogram::Snapshot latency_all;
  /// Per-stage latency (queue always; the rest only while tracing is on —
  /// their counts tell you how many requests were traced).
  LatencyHistogram::Snapshot stage_latency[kNumStages];

  uint64_t TotalRequests() const {
    uint64_t t = 0;
    for (uint64_t v : requests_by_type) t += v;
    return t;
  }
  uint64_t DegradedTotal() const {
    return degraded_effort + degraded_k + degraded_stale + degraded_partial;
  }

  json::Value ToJson() const;
};

class ServiceMetrics {
 public:
  /// Records a completed request: op, outcome, end-to-end latency.
  void RecordRequest(RequestType type, StatusCode code, double latency_ms);

  void RecordEvictionTtl() { evictions_ttl_.fetch_add(1, kRelaxed); }
  void RecordEvictionLru() { evictions_lru_.fetch_add(1, kRelaxed); }
  void RecordAdmissionRejected() {
    admission_rejected_.fetch_add(1, kRelaxed);
  }
  void RecordGreedyDeadlineHit() {
    greedy_deadline_hits_.fetch_add(1, kRelaxed);
  }
  void RecordGreedySeedTruncation() {
    greedy_seed_truncations_.fetch_add(1, kRelaxed);
  }
  /// Accounts one completed greedy run (one screen): its trial-swap
  /// evaluations, refinement passes started, and applied swaps.
  void RecordGreedyRun(uint64_t evaluations, uint64_t passes,
                       uint64_t swaps) {
    greedy_runs_.fetch_add(1, kRelaxed);
    greedy_evaluations_.fetch_add(evaluations, kRelaxed);
    greedy_passes_.fetch_add(passes, kRelaxed);
    greedy_swaps_.fetch_add(swaps, kRelaxed);
  }
  /// Accounts one screen served from the screen memo (no greedy run).
  void RecordScreenMemoHit() { screen_memo_hits_.fetch_add(1, kRelaxed); }
  /// Accounts one greedy run that continued a stored work record.
  void RecordScreenMemoResume() {
    screen_memo_resumes_.fetch_add(1, kRelaxed);
  }
  /// Accounts one degraded answer, by the deepest ladder rung applied.
  void RecordDegradedEffort() { degraded_effort_.fetch_add(1, kRelaxed); }
  void RecordDegradedK() { degraded_k_.fetch_add(1, kRelaxed); }
  void RecordDegradedStale() { degraded_stale_.fetch_add(1, kRelaxed); }
  void RecordDegradedPartial() { degraded_partial_.fetch_add(1, kRelaxed); }
  /// Accounts one admission rejected by the ladder's shed rung.
  void RecordOverloadShed() { overload_sheds_.fetch_add(1, kRelaxed); }

  /// Records one stage's wall time (microseconds).
  void RecordStage(Stage stage, double micros) {
    stage_latency_[static_cast<size_t>(stage)].Record(micros);
  }

  /// Folds a *finished* trace into the stage histograms: every span whose
  /// name matches a stage is recorded once (so `greedy` excludes its `seed`
  /// and `pass` children, which are detail, not stages).
  void RecordTraceStages(const Trace& trace);

  /// `open_sessions` is a gauge the owner passes in (the session manager
  /// knows it; metrics does not reach back to avoid a dependency cycle).
  MetricsSnapshot Snapshot(uint64_t open_sessions = 0) const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  std::array<std::atomic<uint64_t>, kNumRequestTypes> requests_by_type_{};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> not_found_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> other_errors_{0};
  std::atomic<uint64_t> evictions_ttl_{0};
  std::atomic<uint64_t> evictions_lru_{0};
  std::atomic<uint64_t> admission_rejected_{0};
  std::atomic<uint64_t> greedy_deadline_hits_{0};
  std::atomic<uint64_t> greedy_seed_truncations_{0};
  std::atomic<uint64_t> greedy_runs_{0};
  std::atomic<uint64_t> greedy_evaluations_{0};
  std::atomic<uint64_t> greedy_passes_{0};
  std::atomic<uint64_t> greedy_swaps_{0};
  std::atomic<uint64_t> screen_memo_hits_{0};
  std::atomic<uint64_t> screen_memo_resumes_{0};
  std::atomic<uint64_t> degraded_effort_{0};
  std::atomic<uint64_t> degraded_k_{0};
  std::atomic<uint64_t> degraded_stale_{0};
  std::atomic<uint64_t> degraded_partial_{0};
  std::atomic<uint64_t> overload_sheds_{0};

  LatencyHistogram latency_by_type_[kNumRequestTypes];
  LatencyHistogram latency_all_;
  LatencyHistogram stage_latency_[kNumStages];
};

}  // namespace vexus::server
