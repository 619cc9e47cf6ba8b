// Fixed-capacity ring of completed request traces, served by `get_trace`.
//
// The dispatcher finishes one Trace per request; the TraceLog decides whether
// that trace is worth keeping (slow-request filter) and, if so, publishes it
// into a bounded ring so `get_trace` can answer "show me the last N requests"
// and "show me the slowest N requests" without ever growing memory under
// sustained load.
//
// Concurrency model — "lock-free ring buffer" with one honest caveat:
//   * Slot *claiming* is lock-free: writers fetch_add a global sequence
//     counter and own slot `seq % capacity` outright. Two writers never
//     contend for the same slot until the ring has wrapped a full lap, so
//     the common case is wait-free hand-off.
//   * The record *transfer* into the slot is guarded by a tiny per-slot
//     mutex. A shared_ptr<const Trace> plus a handful of POD fields cannot
//     be published atomically without a seqlock-and-copy dance that TSan
//     (and humans) cannot verify; a per-slot mutex keeps readers and the
//     rare lapped writer correct and data-race-free under TSan. The lock is
//     only ever contended when a reader snapshots a slot mid-overwrite.
//   * Readers (Snapshot/LastN/SlowestN) copy records out slot-by-slot; a
//     record observed torn across a lap is rejected via its embedded seq.
//
// The slow-request filter keeps the ring's limited slots for the traces
// that matter: with slow_fraction = f, only requests whose total wall time
// is ≥ f × their budget are recorded (f = 0 records everything; requests
// with an infinite budget are recorded only when f == 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "server/json.h"

namespace vexus::server {

struct TraceLogOptions {
  /// Master switch. When false the dispatcher never allocates a Trace and
  /// the per-request cost of the whole subsystem is one branch.
  bool enabled = false;
  /// Ring capacity (clamped to ≥ 1).
  size_t capacity = 256;
  /// Record only requests with total_ms ≥ slow_fraction × budget_ms.
  /// 0 records everything. Requests with an unbounded budget can only
  /// satisfy a 0 threshold.
  double slow_fraction = 0.0;
};

/// One completed request, as stored in the ring.
struct TraceRecord {
  uint64_t seq = 0;             ///< global admission order (1-based)
  std::string op;               ///< wire op name ("select_next", ...)
  std::string session_id;       ///< empty for session-less ops
  std::string status;           ///< StatusCodeName of the response
  double budget_ms = 0;         ///< request budget (0 = unbounded)
  double total_ms = 0;          ///< wall time, admission → completion
  double queue_ms = 0;          ///< admission → worker pickup
  std::shared_ptr<const Trace> trace;  ///< finished span tree

  bool valid() const { return seq != 0; }
};

class TraceLog {
 public:
  explicit TraceLog(const TraceLogOptions& options);

  bool enabled() const { return options_.enabled; }

  /// Records a finished request. `record.trace` must already be Finish()ed.
  /// Applies the slow-request filter; assigns `record.seq`. Thread-safe.
  void Record(TraceRecord record);

  /// Number of requests offered to Record() (before filtering).
  uint64_t offered() const { return offered_.load(std::memory_order_relaxed); }
  /// Number of requests actually stored (post-filter).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// The most recent `n` stored records, newest first.
  std::vector<TraceRecord> LastN(size_t n) const;

  /// The `n` slowest stored records (by total_ms), slowest first. Ties break
  /// toward the more recent request.
  std::vector<TraceRecord> SlowestN(size_t n) const;

  /// Serializes one record as a JSON object with a nested "spans" array
  /// (flat, parent-indexed — a span's parent always precedes it).
  static json::Value ToJson(const TraceRecord& record);

 private:
  std::vector<TraceRecord> Snapshot() const;

  TraceLogOptions options_;
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> recorded_{0};

  struct Slot {
    mutable std::mutex mu;
    TraceRecord record;  // guarded by mu; seq == 0 while empty
  };
  std::vector<std::unique_ptr<Slot>> ring_;
};

}  // namespace vexus::server
