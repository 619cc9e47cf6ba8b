// Dispatcher — deadline-aware request routing onto common::ThreadPool.
//
// The stateless half of the serving substrate. Each submitted request:
//   1. passes (or is shed by) queue-depth backpressure — beyond
//      `max_queue_depth` outstanding requests the dispatcher answers
//      ResourceExhausted *immediately* instead of stalling the caller; a
//      saturated interactive service must degrade by rejecting, not by
//      growing latency past the paper's continuity budget;
//   2. gets its deadline stamped at admission (default: the paper's 100 ms)
//      — time spent queued counts against it;
//   3. runs on a pool worker, which first re-checks the deadline: a request
//      whose budget is already gone answers DeadlineExceeded (with queue_ms
//      populated) without ever touching a session or the greedy loop;
//   4. otherwise invokes the handler with the live Deadline so it can clamp
//      the greedy time budget to the *remaining* milliseconds, and with a
//      borrowed root TraceSpan (disabled when tracing is off) so stages can
//      attribute their wall time.
//
// Results travel back through std::future, so callers may fan out requests
// for different sessions and collect them concurrently.
//
// Lifetime: tasks queued on the pool share ownership of an internal Core
// (options, gauges, handler) via shared_ptr, so destroying the Dispatcher
// while requests are still queued is safe — the destructor flips a stopping
// flag and the orphaned tasks complete their promises with
// ResourceExhausted instead of running a handler whose captures may be
// gone. Each request is accounted exactly once (metrics + in-flight gauge)
// no matter which path — executed, expired, shed at admission, shed because
// the pool refused the task, or shed at teardown — retires it.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "server/metrics.h"
#include "server/overload.h"
#include "server/protocol.h"
#include "server/trace_log.h"

namespace vexus::server {

/// Client-supplied budgets are clamped to this ceiling so one request
/// cannot park a worker arbitrarily long.
inline constexpr double kMaxBudgetMs = 10'000.0;

struct DispatcherOptions {
  /// Shed requests beyond this many admitted-but-unfinished ones. With the
  /// overload ladder enabled this is the hard backstop behind it (the
  /// ladder usually sheds — or degrades — long before the queue gets here).
  size_t max_queue_depth = 256;
  /// Budget applied when a request carries none (paper P3: 100 ms).
  double default_budget_ms = 100.0;
  /// CoDel-style graceful-degradation ladder (server/overload.h).
  OverloadOptions overload;
};

class Dispatcher {
 public:
  /// The handler runs on pool workers; it must be thread-safe. The deadline
  /// passed to it is the request's admission-stamped end-to-end budget; the
  /// span is a borrowed view of the request's root span (the disabled span
  /// when tracing is off — opening children on it is a no-op branch).
  using Handler =
      std::function<Response(const Request&, const Deadline&, TraceSpan&)>;

  /// `pool` must outlive the dispatcher; `metrics` and `trace_log` (both
  /// optional) must outlive every request admitted through it — in practice
  /// the owner shuts the pool down (draining queued tasks) before
  /// destroying either.
  Dispatcher(ThreadPool* pool, Handler handler, DispatcherOptions options,
             ServiceMetrics* metrics = nullptr, TraceLog* trace_log = nullptr);

  /// Queued-but-unstarted requests are shed (ResourceExhausted) when their
  /// worker finally picks them up; their futures still complete.
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Completion callback of the asynchronous submission path. Invoked
  /// exactly once per request, on whichever thread retires it: a pool worker
  /// for executed requests, the *submitting* thread for requests shed at
  /// admission. Callbacks must therefore be cheap and non-blocking — the
  /// socket front-end's callback just enqueues the response for its event
  /// loop and signals an eventfd (src/net/tcp_server.cc).
  using Completion = std::function<void(Response)>;

  /// Admits (or sheds) `req`; `done` fires when the request completes. This
  /// is the primitive entry point — Submit() is a future-shaped wrapper.
  /// The deadline is stamped here, at admission: callers that frame
  /// requests off a socket submit at read time, so the budget clock starts
  /// the moment the bytes arrived.
  void SubmitAsync(Request req, Completion done);

  /// Admits (or sheds) `req`; the future completes when the request does.
  /// Shed/rejected requests complete immediately, so .get() never deadlocks.
  std::future<Response> Submit(Request req);

  /// Synchronous convenience: Submit + wait.
  Response Call(Request req) { return Submit(std::move(req)).get(); }

  /// Requests admitted and not yet completed (gauge).
  size_t queue_depth() const {
    return core_->in_flight.load(std::memory_order_relaxed);
  }

  const DispatcherOptions& options() const { return core_->options; }

  /// The degradation ladder driven by this dispatcher's queue delays. The
  /// service reads the rung per request; health probes report its state.
  const OverloadController& overload() const { return core_->overload; }
  OverloadController& overload() { return core_->overload; }

 private:
  /// Everything a queued task needs, owned jointly by the dispatcher and
  /// every task it submitted (see the Lifetime note above).
  struct Core {
    explicit Core(const OverloadOptions& overload_options)
        : overload(overload_options) {}
    Handler handler;
    DispatcherOptions options;
    ServiceMetrics* metrics = nullptr;
    TraceLog* trace_log = nullptr;
    OverloadController overload;
    std::atomic<size_t> in_flight{0};
    std::atomic<bool> stopping{false};
  };

  /// Resolves the effective end-to-end budget of a request.
  static double EffectiveBudgetMs(const Core& core, const Request& req);

  ThreadPool* pool_;
  std::shared_ptr<Core> core_;
};

}  // namespace vexus::server
