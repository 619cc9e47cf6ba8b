#include "server/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/partial_eval.h"
#include "server/gather.h"
#include "server/overload.h"

namespace vexus::server {

namespace {

/// Groups-per-screen requests above this are client errors (the paper caps
/// screens at 7 by Miller's law; we allow head-room for scripted analysis).
constexpr uint64_t kMaxScreenK = 64;

}  // namespace

ExplorationService::ExplorationService(const core::VexusEngine* engine,
                                       ServiceOptions options)
    : engine_(engine), options_(std::move(options)) {
  VEXUS_CHECK(engine != nullptr);
  InitRuntime();
  sessions_ =
      std::make_unique<SessionManager>(engine_, options_.sessions, &metrics_);
  warm_state_.store(static_cast<int>(WarmState::kWarm),
                    std::memory_order_release);
}

ExplorationService::ExplorationService(data::Dataset dataset,
                                       ServiceOptions options)
    : engine_(nullptr), options_(std::move(options)) {
  cold_dataset_ = std::make_unique<data::Dataset>(std::move(dataset));
  InitRuntime();
  // Cold: no engine, no session manager. get_stats and warm_from_snapshot
  // are the only ops that succeed until WarmFromSnapshot() flips warm_.
}

ExplorationService::ExplorationService(core::SnapshotShard shard,
                                       uint64_t generation,
                                       ServiceOptions options)
    : engine_(nullptr), options_(std::move(options)) {
  backend_shard_ = std::make_unique<core::SnapshotShard>(std::move(shard));
  backend_generation_ = generation;
  InitRuntime();
  // The service stays "cold" on purpose: session ops answer
  // FailedPrecondition, while eval_partial / shard_info / health /
  // get_stats — everything a gather coordinator needs — serve immediately.
}

void ExplorationService::ConfigureGather(
    std::unique_ptr<GatherCoordinator> gather) {
  gather_ = std::move(gather);
  options_.session_template.greedy.remote_scatter = gather_.get();
}

void ExplorationService::InitRuntime() {
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  // Point every session's greedy scan at our own worker pool. Sessions run
  // their greedy loop *on* a pool worker (the dispatcher executes handlers
  // there); ParallelForChunked's caller-participation makes that safe — a
  // saturated pool degrades to a serial scan instead of deadlocking.
  options_.session_template.greedy.scan_pool = pool_.get();
  trace_log_ = std::make_unique<TraceLog>(options_.trace);
  dispatcher_ = std::make_unique<Dispatcher>(
      pool_.get(),
      [this](const Request& req, const Deadline& deadline, TraceSpan& span) {
        return Execute(req, deadline, span);
      },
      options_.dispatcher, &metrics_, trace_log_.get());
}

ExplorationService::~ExplorationService() { Shutdown(); }

void ExplorationService::Shutdown() { pool_->Shutdown(); }

Status ExplorationService::WarmFromSnapshot(const std::string& path) {
  // Exactly one warmer: CAS kCold -> kWarming. Losers return immediately —
  // a concurrent warm attempt must not park a pool worker behind a
  // multi-second snapshot load (with a small pool that stalls every other
  // request past its deadline).
  if (shard_backend()) {
    return Status::FailedPrecondition(
        "a shard backend serves one snapshot section for life; restart it "
        "to change stores");
  }
  int expected = static_cast<int>(WarmState::kCold);
  if (!warm_state_.compare_exchange_strong(
          expected, static_cast<int>(WarmState::kWarming),
          std::memory_order_acquire, std::memory_order_acquire)) {
    return expected == static_cast<int>(WarmState::kWarming)
               ? Status::FailedPrecondition(
                     "a warm_from_snapshot is already in flight")
               : Status::FailedPrecondition("service is already warm");
  }
  VEXUS_CHECK(cold_dataset_ != nullptr);  // cold ctor is the only cold path

  // From here on every failure path must roll the state back to kCold so the
  // warm-up stays retryable with another snapshot path.
  auto rollback = [this] {
    warm_state_.store(static_cast<int>(WarmState::kCold),
                      std::memory_order_release);
  };

  // Chaos site: the warm-up failing after winning the race (a snapshot
  // fetch layer erroring before the local load even starts).
  if (Status injected = failpoint::Inject("service.warm"); !injected.ok()) {
    rollback();
    return injected;
  }

  Stopwatch watch;
  // FromSnapshot consumes the dataset only on success, so a failed load
  // (missing file, corruption, wrong universe) leaves the service cold and
  // retryable with a different path.
  auto engine = core::VexusEngine::FromSnapshot(cold_dataset_.get(), path);
  if (!engine.ok()) {
    rollback();
    return engine.status().WithContext("warm_from_snapshot(" + path + ")");
  }
  owned_engine_ = std::make_unique<core::VexusEngine>(
      std::move(engine).ValueOrDie());
  cold_dataset_.reset();
  engine_ = owned_engine_.get();
  sessions_ =
      std::make_unique<SessionManager>(engine_, options_.sessions, &metrics_);
  metrics_.RecordWarmLoad(watch.ElapsedMillis());
  // Chaos site: a sleep here holds the service in kWarming with the engine
  // already built — the window the concurrent-warm regression test uses to
  // prove the loser neither double-warms nor observes a torn pointer.
  VEXUS_FAILPOINT_HIT("service.warm.built");
  // Release: request handlers acquire-load warm_state_ before touching
  // engine_ / sessions_, so the stores above are visible once this flips.
  warm_state_.store(static_cast<int>(WarmState::kWarm),
                    std::memory_order_release);
  return Status::OK();
}

std::future<Response> ExplorationService::Dispatch(Request req) {
  // Health probes are answered inline, never queued: an orchestrator must
  // be able to tell "overloaded" from "dead", which requires the probe to
  // bypass the very queue whose congestion it reports (and to never be
  // shed by the ladder it observes).
  if (req.type == RequestType::kHealth) {
    std::promise<Response> ready;
    ready.set_value(DoHealth(req));
    return ready.get_future();
  }
  // shard_info is probe-class (the gather coordinator's breaker probe):
  // inline for the same reason as health.
  if (req.type == RequestType::kShardInfo) {
    std::promise<Response> ready;
    ready.set_value(DoShardInfo(req));
    return ready.get_future();
  }
  return dispatcher_->Submit(std::move(req));
}

void ExplorationService::DispatchAsync(Request req,
                                       Dispatcher::Completion done) {
  // Same health-probe bypass as Dispatch(): answered inline, never queued,
  // never shed (see the comment there).
  if (req.type == RequestType::kHealth) {
    done(DoHealth(req));
    return;
  }
  if (req.type == RequestType::kShardInfo) {
    done(DoShardInfo(req));
    return;
  }
  dispatcher_->SubmitAsync(std::move(req), std::move(done));
}

Response ExplorationService::Call(Request req) {
  return Dispatch(std::move(req)).get();
}

std::string ExplorationService::HandleLine(const std::string& line) {
  auto req = Request::Decode(line);
  if (!req.ok()) {
    // Not a decodable request: answer a synthetic error line. No typed op
    // exists to account it under, so it bypasses per-op metrics by design.
    return EncodeParseError(req.status());
  }
  return Call(std::move(req).ValueOrDie()).Encode();
}

MetricsSnapshot ExplorationService::Stats() const {
  // The acquire on warm_ orders the sessions_ read against the warm-up's
  // release store; while cold the open-session gauge is simply 0.
  if (!warm()) return metrics_.Snapshot(0);
  return metrics_.Snapshot(sessions_->size());
}

// ---------------------------------------------------------------------------
// Worker-side execution
// ---------------------------------------------------------------------------

Response ExplorationService::Execute(const Request& req,
                                     const Deadline& deadline,
                                     TraceSpan& span) {
  switch (req.type) {
    case RequestType::kGetStats:
      return DoGetStats(req);
    case RequestType::kGetTrace:
      return DoGetTrace(req);
    case RequestType::kWarmFromSnapshot:
      return DoWarmFromSnapshot(req, span);
    case RequestType::kHealth:
      // Normally intercepted by Dispatch(); kept here so a health request
      // routed through the dispatcher directly still answers.
      return DoHealth(req);
    case RequestType::kShardInfo:
      // Likewise normally inlined by Dispatch/DispatchAsync.
      return DoShardInfo(req);
    case RequestType::kEvalPartial:
      return DoEvalPartial(req, deadline);
    default:
      break;
  }
  // Every remaining op needs the engine and the session manager; while the
  // service is cold neither exists. The acquire pairs with the warm-up's
  // release store, making engine_/sessions_ safe to dereference below.
  if (!warm()) {
    return ErrorResponse(
        req, Status::FailedPrecondition(
                 "service is cold: no engine loaded yet "
                 "(send warm_from_snapshot first)"));
  }
  if (req.type == RequestType::kStartSession) {
    return DoStartSession(req, deadline, span);
  }
  return DoSessionOp(req, deadline, span);
}

Response ExplorationService::DoEvalPartial(const Request& req,
                                           const Deadline& deadline) {
  Response resp;
  resp.type = req.type;
  if (!shard_backend()) {
    resp.status = Status::FailedPrecondition(
        "eval_partial is a shard-backend op (start with --shard-backend)");
    return resp;
  }
  const core::SnapshotShard& shard = *backend_shard_;
  resp.generation = backend_generation_;
  resp.shard = static_cast<uint32_t>(shard.shard);
  resp.num_shards = static_cast<uint32_t>(shard.num_shards);
  resp.user_begin = shard.user_begin;
  resp.user_end = shard.user_end;
  // Identity + generation fencing: a coordinator talking to the wrong
  // backend (redeploy shuffled ports) or a backend serving a different
  // store generation must fail the lap, never feed the fold — mixed
  // universes would silently corrupt every screen.
  if (*req.shard != shard.shard || *req.num_shards != shard.num_shards) {
    resp.status = Status::FailedPrecondition(
        "shard identity mismatch: this backend is " +
        std::to_string(shard.shard) + "/" + std::to_string(shard.num_shards) +
        ", request expected " + std::to_string(*req.shard) + "/" +
        std::to_string(*req.num_shards));
    return resp;
  }
  if (req.generation != 0 && req.generation != backend_generation_) {
    resp.status = Status::FailedPrecondition(
        "stale store generation: backend serves " +
        std::to_string(backend_generation_) + ", request expected " +
        std::to_string(req.generation));
    return resp;
  }
  if (deadline.Expired()) {
    resp.status =
        Status::DeadlineExceeded("budget exhausted before the partial scan");
    return resp;
  }
  // Chaos sites: a stall here is a slow shard (the hedging/backoff path);
  // an injected status is a flaky backend (the retry/breaker path).
  VEXUS_FAILPOINT_HIT("service.eval_partial");
  if (Status injected = failpoint::Inject("service.eval_partial.fail");
      !injected.ok()) {
    resp.status = injected;
    return resp;
  }
  core::PartialEvalInput input;
  input.anchor = req.anchor;
  input.selection = req.selection;
  input.trials = req.trials;
  auto partials = core::EvalCoveragePartials(shard.groups, input);
  if (!partials.ok()) {
    resp.status = partials.status();
    return resp;
  }
  resp.partials = std::move(partials).ValueOrDie();
  return resp;
}

Response ExplorationService::DoShardInfo(const Request& req) {
  Response resp;
  resp.type = req.type;
  if (!shard_backend()) {
    resp.status = Status::FailedPrecondition(
        "shard_info is a shard-backend op (start with --shard-backend)");
    return resp;
  }
  const core::SnapshotShard& shard = *backend_shard_;
  resp.generation = backend_generation_;
  resp.shard = static_cast<uint32_t>(shard.shard);
  resp.num_shards = static_cast<uint32_t>(shard.num_shards);
  resp.user_begin = shard.user_begin;
  resp.user_end = shard.user_end;
  resp.num_groups = shard.groups.size();
  return resp;
}

void ExplorationService::FillScreen(const core::GreedySelection& selection,
                                    Response* resp, bool fresh_run,
                                    const TraceSpan& span) {
  TraceSpan serialize = span.Child("serialize");
  if (fresh_run) {
    metrics_.RecordGreedyRun(selection.evaluations, selection.passes,
                             selection.swaps);
    // Multi-box gather degradation (DESIGN.md §16): a screen scored over a
    // subset of the user universe outranks the effort/k rung flags — the
    // explorer should know the *data*, not just the effort, was partial.
    if (selection.covered_fraction < 1.0) {
      resp->degraded = "partial";
      resp->covered_fraction = selection.covered_fraction;
    }
  }
  const mining::GroupStore& store = engine_->groups();
  const data::Schema& schema = engine_->dataset().schema();
  resp->groups.reserve(selection.groups.size());
  for (mining::GroupId g : selection.groups) {
    GroupView view;
    view.id = g;
    view.size = store.group(g).size();
    view.description = store.group(g).DescriptionString(schema);
    resp->groups.push_back(std::move(view));
  }
  resp->coverage = selection.quality.coverage;
  resp->diversity = selection.quality.diversity;
  resp->greedy_deadline_hit = selection.deadline_hit;
}

void ExplorationService::RunScreen(core::ExplorationSession& session,
                                   std::optional<mining::GroupId> anchor,
                                   OverloadRung rung, const Deadline& deadline,
                                   const TraceSpan& span, Response* resp) {
  // Remaining-budget clamp: the greedy loop may use at most what is left of
  // the request's end-to-end budget. The overload ladder (DESIGN.md §12.2)
  // shrinks *this request's* effort (rung 1) and k (rung 2), and the trace
  // pointer is set for this request only. All of it is undone after the
  // run: the span dies with the request, and the session keeps the
  // explorer's requested options for when the overload passes.
  core::GreedyOptions& live = session.mutable_options().greedy;
  const core::GreedyOptions configured = live;
  double limit = configured.time_limit_ms;
  if (rung >= OverloadRung::kShrinkEffort) {
    limit *= kEffortFactor;
    live.initial_candidate_cap =
        std::min(live.initial_candidate_cap, kDegradedCandidateCap);
    resp->degraded = "effort";
  }
  if (rung >= OverloadRung::kReduceK) {
    live.k = std::min(
        live.k,
        static_cast<size_t>(dispatcher_->overload().options().degraded_k));
    resp->degraded = "k";  // deepest applied rung wins the flag
  }
  live.time_limit_ms = std::min(limit, deadline.RemainingMillis());
  live.trace = span.enabled() ? &span : nullptr;
  FillScreen(anchor.has_value() ? session.SelectGroup(*anchor)
                                : session.Start(),
             resp, /*fresh_run=*/true, span);
  live = configured;
  if (!resp->degraded.has_value()) return;
  // FillScreen's "partial" outranks the rung flags (see there).
  if (*resp->degraded == "partial") {
    metrics_.RecordDegradedPartial();
  } else if (*resp->degraded == "k") {
    metrics_.RecordDegradedK();
  } else {
    metrics_.RecordDegradedEffort();
  }
}

Response ExplorationService::DoStartSession(const Request& req,
                                            const Deadline& deadline,
                                            TraceSpan& span) {
  core::SessionOptions opts = options_.session_template;
  if (req.k.has_value()) {
    if (*req.k == 0 || *req.k > kMaxScreenK) {
      return ErrorResponse(
          req, Status::InvalidArgument("k must be in [1, " +
                                       std::to_string(kMaxScreenK) + "]"));
    }
    opts.greedy.k = static_cast<size_t>(*req.k);
  }
  if (req.learning_rate.has_value()) {
    if (!(*req.learning_rate > 0) || !std::isfinite(*req.learning_rate)) {
      return ErrorResponse(
          req, Status::InvalidArgument("learning_rate must be finite and > 0"));
    }
    opts.learning_rate = *req.learning_rate;
  }

  TraceSpan admit = span.Child("admit");
  auto created = sessions_->Create(req.session_id, opts);
  admit.Close();
  if (!created.ok()) return ErrorResponse(req, created.status());
  uint64_t generation = std::move(created).ValueOrDie();

  TraceSpan session_span = span.Child("session");
  auto lease = sessions_->Acquire(req.session_id, generation);
  session_span.Close();
  if (!lease.ok()) return ErrorResponse(req, lease.status());
  auto l = std::move(lease).ValueOrDie();

  Response resp;
  resp.type = req.type;
  resp.session_id = req.session_id;
  resp.generation = generation;
  if (deadline.Expired()) {
    resp.status = Status::DeadlineExceeded(
        "budget exhausted before the initial screen was computed");
    return resp;
  }
  // A new session has no cached screen to serve stale, so start_session
  // degrades at most to the reduce-k rung.
  RunScreen(*l, std::nullopt, dispatcher_->overload().rung(), deadline, span,
            &resp);
  resp.step = 0;
  resp.num_steps = l->NumSteps();
  return resp;
}

Response ExplorationService::DoSessionOp(const Request& req,
                                         const Deadline& deadline,
                                         TraceSpan& span) {
  // end_session needs no lease of its own: Remove drains in-flight work.
  if (req.type == RequestType::kEndSession) {
    auto removed = sessions_->Remove(req.session_id, req.generation);
    if (!removed.ok()) return ErrorResponse(req, removed.status());
    core::SessionDigest digest = std::move(removed).ValueOrDie();
    Response resp;
    resp.type = req.type;
    resp.session_id = req.session_id;
    resp.num_steps = digest.num_steps;
    resp.step = digest.num_steps == 0 ? 0 : digest.num_steps - 1;
    resp.memo_groups = digest.memo_groups;
    resp.memo_users = digest.memo_users;
    return resp;
  }

  TraceSpan session_span = span.Child("session");
  auto lease = sessions_->Acquire(req.session_id, req.generation);
  session_span.Close();
  if (!lease.ok()) return ErrorResponse(req, lease.status());
  auto l = std::move(lease).ValueOrDie();

  Response resp;
  resp.type = req.type;
  resp.session_id = req.session_id;
  resp.generation = l.generation();

  // The lease wait above may have consumed the rest of the budget; mutating
  // ops must not start late (the explorer has moved on).
  if (deadline.Expired()) {
    resp.status = Status::DeadlineExceeded("budget exhausted waiting for the session lease");
    return resp;
  }

  const mining::GroupStore& store = engine_->groups();
  switch (req.type) {
    case RequestType::kSelectGroup: {
      if (*req.group >= store.size()) {
        resp.status = Status::InvalidArgument(
            "unknown group " + std::to_string(*req.group) + " (store has " +
            std::to_string(store.size()) + ")");
        return resp;
      }
      // Overload ladder (DESIGN.md §12.2). Rung 3 (stale): answer the
      // session's *cached* current screen without running greedy or
      // learning — the explorer sees an instant, slightly stale response
      // flagged degraded:"stale" instead of a shed.
      const OverloadRung rung = dispatcher_->overload().rung();
      if (rung >= OverloadRung::kStale && l->NumSteps() > 0) {
        FillScreen(l->Current(), &resp, /*fresh_run=*/false, span);
        resp.degraded = "stale";
        metrics_.RecordDegradedStale();
        break;
      }
      RunScreen(*l, *req.group, rung, deadline, span, &resp);
      break;
    }
    case RequestType::kBacktrack: {
      Status st = l->Backtrack(static_cast<size_t>(*req.step));
      if (!st.ok()) {
        resp.status = std::move(st);
        return resp;
      }
      FillScreen(l->Current(), &resp, /*fresh_run=*/false, span);
      break;
    }
    case RequestType::kBookmark: {
      if (req.group.has_value()) {
        if (*req.group >= store.size()) {
          resp.status = Status::InvalidArgument(
              "unknown group " + std::to_string(*req.group));
          return resp;
        }
        l->BookmarkGroup(*req.group);
      } else {
        if (*req.user >= engine_->dataset().num_users()) {
          resp.status = Status::InvalidArgument(
              "unknown user " + std::to_string(*req.user));
          return resp;
        }
        l->BookmarkUser(*req.user);
      }
      break;
    }
    case RequestType::kUnlearn: {
      if (*req.token >= l->tokens().num_tokens()) {
        resp.status = Status::InvalidArgument(
            "unknown token " + std::to_string(*req.token));
        return resp;
      }
      l->Unlearn(*req.token);
      break;
    }
    case RequestType::kGetContext: {
      TraceSpan serialize = span.Child("serialize");
      size_t top_k = static_cast<size_t>(req.top_k.value_or(10));
      for (const auto& ts : l->ContextTokens(top_k)) {
        ContextTokenView view;
        view.token = ts.token;
        view.score = ts.score;
        view.label = l->tokens().Label(ts.token, engine_->dataset());
        resp.context.push_back(std::move(view));
      }
      break;
    }
    default:
      resp.status = Status::NotSupported("unhandled op");
      return resp;
  }

  resp.num_steps = l->NumSteps();
  resp.step = resp.num_steps == 0 ? 0 : resp.num_steps - 1;
  resp.memo_groups = l->memo().groups.size();
  resp.memo_users = l->memo().users.size();
  return resp;
}

Response ExplorationService::DoGetStats(const Request& req) {
  // Ride the stats poll for TTL progress: monitoring traffic alone keeps
  // expired sessions from accumulating even when no explorer is active.
  // While cold there is no session manager (and nothing to sweep) — stats
  // still answer, so monitoring works before the first warm-up.
  if (warm()) sessions_->SweepExpired();
  Response resp;
  resp.type = req.type;
  resp.stats = Stats().ToJson();
  if (gather_ != nullptr) {
    // Ride the same poll for breaker recovery: an open circuit past its
    // cooldown gets its half-open probe here, so a recovered backend flips
    // back to closed even when no explorer traffic is flowing.
    gather_->ProbeShards();
    resp.stats->AsObject().emplace_back("gather", gather_->MembershipJson());
  }
  return resp;
}

Response ExplorationService::DoWarmFromSnapshot(const Request& req,
                                                TraceSpan& span) {
  Response resp;
  resp.type = req.type;
  TraceSpan warm_span = span.Child("warm");
  resp.status = WarmFromSnapshot(*req.path);
  return resp;
}

Response ExplorationService::DoHealth(const Request& req) {
  const OverloadController& overload = dispatcher_->overload();
  const bool warm_ready = warm();
  // A shard backend is "ready" the moment it is up: it never warms (there
  // is no engine), and its one job — eval_partial — serves immediately.
  const bool ready = warm_ready || shard_backend();
  const int state = warm_state_.load(std::memory_order_relaxed);
  const OverloadRung rung = overload.rung();

  json::Object h;
  h.emplace_back("alive", json::Value(true));
  // Readiness = warm: a cold replica can answer health/stats/warm ops but
  // no session traffic, so orchestrators should not route explorers to it.
  // (Shard backends are the exception above — their readiness means "the
  // gather fleet may route eval_partial here".)
  h.emplace_back("ready", json::Value(ready));
  h.emplace_back(
      "state",
      json::Value(shard_backend() ? "shard_backend"
                  : state == static_cast<int>(WarmState::kWarm) ? "warm"
                  : state == static_cast<int>(WarmState::kWarming)
                      ? "warming"
                      : "cold"));
  if (shard_backend()) {
    h.emplace_back("shard", json::Value(backend_shard_->shard));
    h.emplace_back("num_shards", json::Value(backend_shard_->num_shards));
    h.emplace_back("generation", json::Value(backend_generation_));
  }
  h.emplace_back("overload_rung", json::Value(static_cast<int64_t>(rung)));
  h.emplace_back("overload_rung_name", json::Value(OverloadRungName(rung)));
  h.emplace_back("queue_depth",
                 json::Value(static_cast<uint64_t>(dispatcher_->queue_depth())));
  h.emplace_back("queue_delay_min_ms",
                 json::Value(overload.last_window_min_delay_ms()));
  h.emplace_back("overload_escalations", json::Value(overload.escalations()));
  // Degraded/shed counters from one relaxed snapshot — no quantile math,
  // no per-op JSON table, so the probe stays cheap for high-rate polling.
  MetricsSnapshot snap = metrics_.Snapshot(warm_ready ? sessions_->size() : 0);
  json::Object degraded;
  degraded.emplace_back("effort", json::Value(snap.degraded_effort));
  degraded.emplace_back("k", json::Value(snap.degraded_k));
  degraded.emplace_back("stale", json::Value(snap.degraded_stale));
  degraded.emplace_back("partial", json::Value(snap.degraded_partial));
  h.emplace_back("degraded", json::Value(std::move(degraded)));
  h.emplace_back("overload_sheds", json::Value(snap.overload_sheds));
  h.emplace_back("shed", json::Value(snap.shed));
  h.emplace_back("open_sessions", json::Value(snap.open_sessions));

  Response resp;
  resp.type = req.type;
  resp.health = json::Value(std::move(h));
  return resp;
}

Response ExplorationService::DoGetTrace(const Request& req) {
  Response resp;
  resp.type = req.type;
  if (!trace_log_->enabled()) {
    resp.status = Status::NotSupported(
        "tracing is disabled (ServiceOptions::trace.enabled)");
    return resp;
  }
  size_t n = static_cast<size_t>(req.n.value_or(1));
  std::vector<TraceRecord> records =
      req.slowest ? trace_log_->SlowestN(n) : trace_log_->LastN(n);
  json::Array arr;
  arr.reserve(records.size());
  for (const TraceRecord& r : records) arr.push_back(TraceLog::ToJson(r));
  resp.traces = json::Value(std::move(arr));
  return resp;
}

}  // namespace vexus::server
