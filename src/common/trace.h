// Request-scoped span tracing for the 100 ms interactivity budget.
//
// The paper's P3 guarantee (every exploration step answers within the
// continuity budget) is enforced by deadlines, but a deadline only tells you
// *that* a request was slow — not where the time went. A Trace attributes
// one request's wall time to a tree of named stages:
//
//   request
//   ├─ queue       time between admission and a worker picking it up
//   ├─ admit       session admission (start_session only)
//   ├─ session     waiting for / acquiring the exclusive session lease
//   ├─ rank        candidate-pool construction + prior ranking
//   ├─ greedy      the anytime swap loop
//   │   ├─ seed      seeding: weighted-similarity scoring + sort
//   │   └─ pass ×N   one span per refinement pass (count = trial evals)
//   └─ serialize   screen/context payload construction
//
// Design constraints (this is request-path code):
//   * A *disabled* tracer costs one branch per span: every TraceSpan
//     operation starts with `if (trace_ == nullptr) return;`, and when
//     tracing is off no Trace object is ever allocated
//     (bench/bench_trace_overhead pins the cost).
//   * Span creation is thread-safe: a fan-out may open child spans from
//     pool workers concurrently. Spans live in a flat, mutex-guarded arena
//     of parent-indexed records; a span handle is (trace, index), so
//     handles stay valid as the arena grows.
//   * Bounded memory: a trace holds at most `max_spans` records; once full,
//     Open() returns the null handle and the subtree is silently dropped
//     (the enclosing spans still measure their time).
//   * Monotonic clocks only (Stopwatch / steady_clock): span offsets are
//     microseconds since the trace epoch, immune to wall-clock steps.
//
// The serving layer threads a TraceSpan through Dispatcher → Service →
// SessionManager → greedy (src/server/trace_log.h stores completed traces
// and serves them over the wire via the get_trace op).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace vexus {

class Trace;

/// RAII handle on one span of a Trace. A default-constructed TraceSpan is
/// the *disabled* span: every operation on it is a single branch, and
/// children of a disabled span are disabled. Move-only; destruction closes
/// the span (owned handles) or leaves it open (borrowed views).
class TraceSpan {
 public:
  /// The disabled span (tracing off / arena full / dropped subtree).
  TraceSpan() = default;

  TraceSpan(TraceSpan&& other) noexcept
      : trace_(other.trace_), index_(other.index_), owned_(other.owned_) {
    other.trace_ = nullptr;
    other.index_ = -1;
    other.owned_ = false;
  }
  /// Move-assignment would need to close an existing span mid-expression;
  /// construct a fresh TraceSpan instead.
  TraceSpan& operator=(TraceSpan&&) = delete;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Close(); }

  /// A non-owning view of an existing span (destruction does NOT close it).
  /// The dispatcher uses this to lend the root span to the request handler.
  /// A null `trace` yields the disabled span.
  static TraceSpan View(Trace* trace, int32_t index);

  /// Opens a child span. `name` must have static storage duration (the
  /// arena stores the pointer). Thread-safe; may be called concurrently
  /// with other Child()/Close() calls on the same trace.
  TraceSpan Child(const char* name) const;

  /// Adds `n` to the span's work counter (e.g. greedy trial evaluations).
  void AddCount(uint64_t n) const;

  /// Closes the span now (idempotent; the destructor calls it for owned
  /// handles). After Close() the handle behaves as disabled.
  void Close();

  /// Disowns the handle, leaving the span OPEN, and returns its index (-1
  /// for a disabled span). Pair with Adopt() to carry a live span across a
  /// copyable-closure boundary (std::function cannot capture a move-only
  /// TraceSpan): the dispatcher detaches the `queue` span at admission and
  /// adopts it on the worker, where its destructor closes it.
  int32_t Detach();

  /// Re-adopts a span detached earlier: an *owned* handle whose destruction
  /// closes the span. A null trace / negative index yields the disabled
  /// span.
  static TraceSpan Adopt(Trace* trace, int32_t index);

  /// False for the disabled span — callers can skip expensive annotation
  /// work (string building, etc.) when tracing is off.
  bool enabled() const { return trace_ != nullptr; }

  Trace* trace() const { return trace_; }
  int32_t index() const { return index_; }

 private:
  friend class Trace;
  TraceSpan(Trace* trace, int32_t index, bool owned)
      : trace_(trace), index_(index), owned_(owned) {}

  Trace* trace_ = nullptr;
  int32_t index_ = -1;
  bool owned_ = false;
};

/// One request's span tree. The root span (index 0) opens at construction
/// and closes at Finish(); everything else hangs off it via TraceSpan.
class Trace {
 public:
  /// Index of the root span (always present).
  static constexpr int32_t kRootIndex = 0;

  struct Span {
    const char* name = "";     // static storage (see TraceSpan::Child)
    int32_t parent = -1;       // kRootIndex's parent is -1
    int64_t start_us = 0;      // offset from the trace epoch
    int64_t duration_us = -1;  // -1 while open
    uint64_t count = 0;        // optional work counter (AddCount)
  };

  /// Starts the trace; the root span opens immediately under `root_name`
  /// (static storage). `max_spans` bounds arena growth (≥ 1).
  explicit Trace(const char* root_name, size_t max_spans = 256);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// A borrowed handle on the root span (never closes it).
  TraceSpan root() { return TraceSpan::View(this, kRootIndex); }

  /// Closes the root span (and any spans left open, so a truncated request
  /// still serializes a consistent tree). Idempotent.
  void Finish();

  /// Total wall time of the root span. Valid after Finish(); before it,
  /// reports the live elapsed time.
  int64_t total_us() const;

  /// Snapshot of the span arena (copy under the lock). Spans are in
  /// creation order; a span's parent always precedes it, so a single
  /// forward pass can rebuild the tree.
  std::vector<Span> spans() const;

  /// Number of spans dropped because the arena was full.
  uint64_t dropped() const;

 private:
  friend class TraceSpan;

  /// Returns the new span's index, or -1 when the arena is full.
  int32_t Open(int32_t parent, const char* name);
  void Close(int32_t index);
  void AddCount(int32_t index, uint64_t n);

  Stopwatch epoch_;
  size_t max_spans_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;   // guarded by mu_
  uint64_t dropped_ = 0;      // guarded by mu_
  bool finished_ = false;     // guarded by mu_
  int64_t total_us_ = 0;      // guarded by mu_ (set by Finish)
};

}  // namespace vexus
