#include "server/dispatcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"

namespace vexus::server {

Dispatcher::Dispatcher(ThreadPool* pool, Handler handler,
                       DispatcherOptions options, ServiceMetrics* metrics,
                       TraceLog* trace_log)
    : pool_(pool), core_(std::make_shared<Core>(options.overload)) {
  VEXUS_CHECK(pool_ != nullptr);
  VEXUS_CHECK(handler != nullptr);
  core_->handler = std::move(handler);
  core_->options = options;
  if (core_->options.max_queue_depth == 0) core_->options.max_queue_depth = 1;
  core_->metrics = metrics;
  core_->trace_log = trace_log;
}

Dispatcher::~Dispatcher() {
  // Chaos site: sleeping here widens the window in which queued tasks race
  // the destructor — the exact interleaving the teardown-shed path guards.
  VEXUS_FAILPOINT_HIT("dispatcher.teardown");
  // Queued tasks keep the Core alive via shared_ptr; the flag tells them to
  // shed instead of calling a handler whose captures may already be dead.
  core_->stopping.store(true, std::memory_order_release);
}

double Dispatcher::EffectiveBudgetMs(const Core& core, const Request& req) {
  double budget = req.budget_ms.value_or(core.options.default_budget_ms);
  // Negative/zero budgets are honored as "already expired" (the
  // Deadline::AfterMillis contract); only the ceiling is clamped here.
  return std::min(budget, kMaxBudgetMs);
}

std::future<Response> Dispatcher::Submit(Request req) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  SubmitAsync(std::move(req),
              [promise](Response resp) { promise->set_value(std::move(resp)); });
  return future;
}

void Dispatcher::SubmitAsync(Request req, Completion done) {
  std::shared_ptr<Core> core = core_;

  // Retires the request exactly once: metrics, the in-flight gauge (when
  // this path admitted it), and the caller's completion.
  auto finish = [core, done = std::move(done)](const Request& r, Response resp,
                                               double latency_ms,
                                               bool admitted) {
    if (admitted) core->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (core->metrics != nullptr) {
      core->metrics->RecordRequest(r.type, resp.status.code(), latency_ms);
    }
    resp.elapsed_ms = latency_ms;
    done(std::move(resp));
  };

  // ---- 0. Overload ladder, last rung: admission control. The ladder keeps
  //         admitting while the standing queue is at or below the probe
  //         floor, so drain progress is still measured and the controller
  //         can walk back down (see server/overload.h). ----
  if (core->overload.rung() == OverloadRung::kShed &&
      core->in_flight.load(std::memory_order_relaxed) >
          kShedKeepDepth) {
    if (core->metrics != nullptr) core->metrics->RecordOverloadShed();
    finish(req,
           ErrorResponse(req, Status::ResourceExhausted(
                                  "overload: degradation ladder at 'shed'")),
           /*latency_ms=*/0, /*admitted=*/false);
    return;
  }

  // ---- 1. Backpressure backstop: shed instead of stall. ----
  size_t depth = core->in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  if (depth > core->options.max_queue_depth) {
    finish(req,
           ErrorResponse(req, Status::ResourceExhausted(
                                  "queue depth " + std::to_string(depth - 1) +
                                  " exceeds limit " +
                                  std::to_string(core->options.max_queue_depth))),
           /*latency_ms=*/0, /*admitted=*/true);
    return;
  }

  // Chaos site: a fault here simulates admission-side failures (allocation
  // pressure, an auth/quota layer saying no) after the request was counted.
  if (Status injected = failpoint::Inject("dispatcher.admit");
      !injected.ok()) {
    finish(req, ErrorResponse(req, std::move(injected)), /*latency_ms=*/0,
           /*admitted=*/true);
    return;
  }

  // ---- 2. Deadline stamped at admission; trace root + queue span open. ----
  Stopwatch admitted;
  double budget_ms = EffectiveBudgetMs(*core, req);
  Deadline deadline = Deadline::AfterMillis(budget_ms);
  std::shared_ptr<Trace> trace;
  int32_t queue_span = -1;
  if (core->trace_log != nullptr && core->trace_log->enabled()) {
    trace = std::make_shared<Trace>("request");
    queue_span = trace->root().Child("queue").Detach();
  }

  // `req` is captured by copy: the shed paths below still need the original
  // to report which op was dropped. Everything else the task touches lives
  // in `core` (shared) or is a value — the Dispatcher itself may be gone by
  // the time a queued task runs.
  auto task = [core, finish, req, admitted, deadline, budget_ms, trace,
               queue_span]() {
    TraceSpan::Adopt(trace.get(), queue_span).Close();
    double queue_ms = admitted.ElapsedMillis();
    // Every executing task is a queue-delay sample for the overload ladder
    // (CoDel-style min-over-window; see server/overload.h).
    core->overload.OnQueueDelay(queue_ms);
    Response resp;
    if (core->stopping.load(std::memory_order_acquire)) {
      // ---- Teardown: the dispatcher died with this request queued. The
      //      handler's captures are not safe to touch; shed. ----
      resp = ErrorResponse(
          req, Status::ResourceExhausted("service shutting down"));
    } else if (deadline.Expired()) {
      // ---- 3. Expired while queued (or born expired): never touch the
      //         session or the greedy loop. ----
      resp = ErrorResponse(
          req, Status::DeadlineExceeded(
                   "budget exhausted after " + std::to_string(queue_ms) +
                   " ms in queue"));
    } else if (Status injected = failpoint::Inject("dispatcher.execute");
               !injected.ok()) {
      // ---- Chaos site: the handler "failed" before running (worker
      //      crash-equivalent). The request still retires exactly once. ----
      resp = ErrorResponse(req, std::move(injected));
    } else {
      // ---- 4. Execute with the live remaining budget. ----
      TraceSpan root =
          trace ? trace->root() : TraceSpan();  // disabled when untraced
      resp = core->handler(req, deadline, root);
    }
    resp.queue_ms = queue_ms;
    double total_ms = admitted.ElapsedMillis();
    if (trace) {
      trace->Finish();
      if (core->metrics != nullptr) core->metrics->RecordTraceStages(*trace);
      if (core->trace_log != nullptr) {
        TraceRecord record;
        record.op = std::string(RequestTypeName(req.type));
        record.session_id = req.session_id;
        record.status = std::string(StatusCodeToString(resp.status.code()));
        record.budget_ms =
            budget_ms >= Deadline::kInfiniteBudgetMillis ? 0 : budget_ms;
        record.total_ms = total_ms;
        record.queue_ms = queue_ms;
        record.trace = trace;
        core->trace_log->Record(std::move(record));
      }
    } else if (core->metrics != nullptr) {
      // Queue time is a stage even when tracing is off (it is free: the
      // admission stopwatch already measured it).
      core->metrics->RecordStage(Stage::kQueue, queue_ms * 1e3);
    }
    finish(req, std::move(resp), total_ms, /*admitted=*/true);
  };

  if (!pool_->Submit(std::move(task))) {
    // Pool is shutting down: shed, never lose the completion.
    finish(req,
           ErrorResponse(req,
                         Status::ResourceExhausted("service shutting down")),
           /*latency_ms=*/0, /*admitted=*/true);
  }
}

}  // namespace vexus::server
