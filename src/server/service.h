// ExplorationService — the headless, embeddable serving substrate in front
// of VexusEngine.
//
//            ┌────────────────────────────────────────────────┐
//   line ───▶│ protocol codec ─▶ Dispatcher ─▶ Execute()      │───▶ line
//            │   (json.h)         (ThreadPool,   │            │
//            │                     deadlines,    ▼            │
//            │                     backpressure) SessionManager──▶ Exploration-
//            │                        │          (one table,  │     Session ×N
//            │                        ▼           TTL+LRU)    │
//            │                   ServiceMetrics               │
//            └────────────────────────────────────────────────┘
//
// One process hosts one engine (the preprocessed group store + index) and
// many named sessions; every later scaling PR — real sockets, sharding
// across engines, replication — plugs in front of or behind this class
// without touching the exploration core.
#pragma once

#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "server/dispatcher.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "server/trace_log.h"

namespace vexus::server {

class GatherCoordinator;

struct ServiceOptions {
  SessionManagerOptions sessions;
  DispatcherOptions dispatcher;
  /// Template for new sessions; start_session may override k /
  /// learning_rate per request. The greedy time budget is always clamped to
  /// the request's remaining deadline at execution time.
  core::SessionOptions session_template;
  /// Worker threads (0 → hardware concurrency).
  size_t num_workers = 0;
  /// Request-scoped tracing (DESIGN.md §10). Disabled by default: with
  /// trace.enabled == false no Trace is ever allocated and the per-request
  /// cost is one branch per would-be span.
  TraceLogOptions trace;
};

class ExplorationService {
 public:
  /// Engine construction (standalone or gather coordinator): `engine` must
  /// outlive the service. To serve from a snapshot, restore the engine with
  /// core::VexusEngine::FromSnapshot first (DESIGN.md §11.4): the service
  /// is complete, and ready, from construction on.
  explicit ExplorationService(const core::VexusEngine* engine,
                              ServiceOptions options = {});

  /// Shard-backend construction (DESIGN.md §16): the service owns one
  /// snapshot shard slice and serves only eval_partial / shard_info /
  /// health / get_stats — a multi-box gather fleet's backend. Session ops
  /// fail with FailedPrecondition (there is no engine). `generation` is
  /// the store generation fenced by eval_partial requests.
  ExplorationService(core::SnapshotShard shard, uint64_t generation,
                     ServiceOptions options = {});

  ~ExplorationService();

  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  /// Asynchronous entry point: admit/shed now, complete later. The socket
  /// front-end (src/net) uses it so worker threads can complete responses
  /// back onto the owning connection's event loop instead of parking a
  /// thread. `done` fires exactly once, on a pool worker for executed
  /// requests or inline on the calling thread for health/shard_info probes
  /// and requests shed at admission; it must be cheap and non-blocking.
  void DispatchAsync(Request req, Dispatcher::Completion done);

  /// Synchronous entry point (DispatchAsync + wait).
  Response Call(Request req);

  /// Wire-level entry point: one request line in, one response line out
  /// (no trailing newline). Parse failures produce an InvalidArgument
  /// response line, never an exception — misbehaving clients cannot take
  /// the service down.
  std::string HandleLine(const std::string& line);

  /// Stops accepting work and drains the workers. Idempotent; also run by
  /// the destructor. In-flight requests complete; queued-but-unstarted ones
  /// still run (the pool drains); requests submitted after shutdown are
  /// shed with ResourceExhausted.
  void Shutdown();

  /// Wires a gather coordinator (owned) into every *future* session's
  /// greedy options as the remote trial scatterer. Must be called before
  /// any session is created — sessions snapshot the template at Create
  /// time. The coordinator's transports are built by the embedder
  /// (examples/vexus_server.cpp over net::ShardClient; tests over stubs):
  /// the service layer stays transport-free.
  void ConfigureGather(std::unique_ptr<GatherCoordinator> gather);
  /// Null unless ConfigureGather ran.
  GatherCoordinator* gather() const { return gather_.get(); }

  /// True for the shard-backend constructor's shape.
  bool shard_backend() const { return backend_shard_ != nullptr; }

  const ServiceMetrics& metrics() const { return metrics_; }
  /// Valid only over an engine (not on a shard backend).
  SessionManager& sessions() { return *sessions_; }
  /// Valid only over an engine (not on a shard backend).
  const core::VexusEngine& engine() const { return *engine_; }
  const TraceLog& trace_log() const { return *trace_log_; }
  /// Admission/queue layer. Exposed so embedders and tests can read the
  /// overload ladder (dispatcher().overload().rung()) or force a rung when
  /// exercising degraded paths.
  Dispatcher& dispatcher() { return *dispatcher_; }

  /// Current metrics frozen, with the live session gauge filled in.
  MetricsSnapshot Stats() const;

 private:
  /// Worker-side execution (Dispatcher handler). `span` is the request's
  /// root span (the disabled span when tracing is off). Health and
  /// shard_info never get here: DispatchAsync answers them inline.
  Response Execute(const Request& req, const Deadline& deadline,
                   TraceSpan& span);

  Response DoStartSession(const Request& req, const Deadline& deadline,
                          TraceSpan& span);
  Response DoSessionOp(const Request& req, const Deadline& deadline,
                       TraceSpan& span);
  Response DoGetStats(const Request& req);
  Response DoGetTrace(const Request& req);
  /// Liveness/readiness probe, built from atomics only (no histogram
  /// serialization). Answered inline by DispatchAsync() so orchestrator probes
  /// never queue behind session traffic and are never shed.
  Response DoHealth(const Request& req);
  /// Shard-backend ops (DESIGN.md §16). eval_partial runs on a worker with
  /// the full deadline discipline; shard_info is probe-class and answered
  /// inline like health (a gather coordinator's breaker probe must never
  /// be shed by the very overload it is diagnosing).
  Response DoEvalPartial(const Request& req, const Deadline& deadline);
  Response DoShardInfo(const Request& req);

  /// Shared tail of both constructors (pool, trace log, dispatcher).
  void InitRuntime();

  /// Fills the screen payload (groups + quality) from a selection, under a
  /// `serialize` child of `span`. When `fresh_run` is set the selection came
  /// from a greedy run executed for this request (start_session /
  /// select_group) and its work counters are recorded; replayed screens
  /// (backtrack) pass false so a screen is only accounted once.
  void FillScreen(const core::GreedySelection& selection, Response* resp,
                  bool fresh_run, const TraceSpan& span);

  /// Runs this request's fresh screen — `Start()` without an anchor,
  /// `SelectGroup(*anchor)` with one — at the overload `rung`'s effort,
  /// within the remaining `deadline`; fills `resp` and flags and counts a
  /// degraded screen. The session's greedy options are restored afterwards.
  void RunScreen(core::ExplorationSession& session,
                 std::optional<mining::GroupId> anchor, OverloadRung rung,
                 const Deadline& deadline, const TraceSpan& span,
                 Response* resp);

  const core::VexusEngine* engine_;  // null on a shard backend
  ServiceOptions options_;
  /// Shard-backend state (null in coordinator/standalone shapes).
  std::unique_ptr<core::SnapshotShard> backend_shard_;
  uint64_t backend_generation_ = 0;
  /// Owned gather coordinator (null unless ConfigureGather ran).
  std::unique_ptr<GatherCoordinator> gather_;
  ServiceMetrics metrics_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<SessionManager> sessions_;  // null on a shard backend
  std::unique_ptr<TraceLog> trace_log_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace vexus::server
