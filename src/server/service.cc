#include "server/service.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/partial_eval.h"
#include "server/gather.h"
#include "server/overload.h"

namespace vexus::server {

namespace {

/// Groups-per-screen requests above this are client errors (the paper caps
/// screens at 7 by Miller's law; we allow head-room for scripted analysis).
constexpr uint64_t kMaxScreenK = 64;

/// get_context top_k above this is a client error: the answer must fit the
/// wire's 1 MiB response line (1,000 tokens is ~64 KB at paper scale).
constexpr uint64_t kMaxContextTokens = 1000;

}  // namespace

ExplorationService::ExplorationService(const core::VexusEngine* engine,
                                       ServiceOptions options)
    : engine_(engine), options_(std::move(options)) {
  VEXUS_CHECK(engine != nullptr);
  InitRuntime();
  sessions_ =
      std::make_unique<SessionManager>(engine_, options_.sessions, &metrics_);
}

ExplorationService::ExplorationService(core::SnapshotShard shard,
                                       uint64_t generation,
                                       ServiceOptions options)
    : engine_(nullptr), options_(std::move(options)) {
  backend_shard_ = std::make_unique<core::SnapshotShard>(std::move(shard));
  backend_generation_ = generation;
  InitRuntime();
  // No engine on purpose: session ops answer FailedPrecondition, while
  // eval_partial / shard_info / health / get_stats — everything a gather
  // coordinator needs — serve immediately.
}

void ExplorationService::ConfigureGather(
    std::unique_ptr<GatherCoordinator> gather) {
  gather_ = std::move(gather);
  options_.session_template.greedy.remote_scatter = gather_.get();
}

void ExplorationService::InitRuntime() {
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
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

void ExplorationService::DispatchAsync(Request req,
                                       Dispatcher::Completion done) {
  // Health probes are answered inline, never queued: an orchestrator must
  // be able to tell "overloaded" from "dead", which requires the probe to
  // bypass the very queue whose congestion it reports (and to never be
  // shed by the ladder it observes). shard_info is probe-class (the gather
  // coordinator's breaker probe): inline for the same reason.
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
  // Shared, not on this stack: the worker may still be inside set_value
  // when get() returns.
  auto result = std::make_shared<std::promise<Response>>();
  std::future<Response> ready = result->get_future();
  DispatchAsync(std::move(req), [result](Response resp) {
    result->set_value(std::move(resp));
  });
  return ready.get();
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
  // A shard backend has no sessions: its open-session gauge is simply 0,
  // and it has no screen memo.
  MetricsSnapshot s =
      metrics_.Snapshot(sessions_ != nullptr ? sessions_->size() : 0);
  if (engine_ != nullptr) {
    const core::ScreenMemo::Stats memo = engine_->screens().stats();
    s.screen_memo_screens = memo.screens;
    s.screen_memo_records = memo.records;
    s.screen_memo_refused_full = memo.refused_full;
    s.screen_memo_entries.assign(memo.by_path_length.begin(),
                                 memo.by_path_length.end());
  }
  return s;
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
    case RequestType::kEvalPartial:
      return DoEvalPartial(req, deadline);
    default:
      break;
  }
  // Every remaining op needs the engine and the session manager; a shard
  // backend has neither.
  if (engine_ == nullptr) {
    return ErrorResponse(
        req, Status::FailedPrecondition(
                 "a shard backend serves no sessions (only eval_partial, "
                 "shard_info, health and get_stats)"));
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
        "eval_partial is a shard-backend op (start the daemon with "
        "--shard i)");
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
        "shard_info is a shard-backend op (start the daemon with "
        "--shard i)");
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
    if (selection.deadline_hit) metrics_.RecordGreedyDeadlineHit();
    if (selection.seed_truncated) metrics_.RecordGreedySeedTruncation();
    // Multi-box gather degradation (DESIGN.md §16): a screen scored over a
    // subset of the user universe outranks the effort flag — the
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
  // shrinks *this request's* time limit (rung 1), and the trace pointer is
  // set for this request only. Both are undone after the run: the span dies
  // with the request, and the session keeps its own limit for when the
  // overload passes.
  core::GreedyOptions& live = session.mutable_greedy();
  const core::GreedyOptions configured = live;
  const double effort = rung >= OverloadRung::kShrinkEffort ? kEffortFactor : 1;
  live.time_limit_ms = std::min(configured.time_limit_ms * effort,
                                deadline.RemainingMillis());
  live.trace = span.enabled() ? &span : nullptr;
  const core::GreedySelection& screen =
      anchor.has_value() ? session.SelectGroup(*anchor) : session.Start();
  if (screen.memoized) metrics_.RecordScreenMemoHit();
  if (screen.resumed) metrics_.RecordScreenMemoResume();
  // A screen served from the engine's memo ran no greedy here.
  FillScreen(screen, resp, /*fresh_run=*/!screen.memoized, span);
  live = configured;
  // The flag describes the screen: "partial" (FillScreen) outranks
  // "effort", which only a run the shrunken budget cut earns.
  if (resp->degraded.has_value()) {
    metrics_.RecordDegradedPartial();
  } else if (rung >= OverloadRung::kShrinkEffort && screen.deadline_hit) {
    resp->degraded = "effort";
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
  // degrades at most to the effort rung.
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
      // A start whose budget ran out after admission leaves a session
      // with no screen to click on.
      if (l->NumSteps() == 0) {
        resp.status = Status::FailedPrecondition(
            "session has no screen yet: its start_session has not completed");
        return resp;
      }
      // Overload ladder (DESIGN.md §12.2). Rung 2 (stale): answer the
      // session's *cached* current screen without running greedy or
      // learning — the explorer sees an instant, slightly stale response
      // flagged degraded:"stale" instead of a shed.
      const OverloadRung rung = dispatcher_->overload().rung();
      if (rung >= OverloadRung::kStale) {
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
      if (req.top_k.value_or(0) > kMaxContextTokens) {
        resp.status = Status::InvalidArgument(
            "top_k must be at most " + std::to_string(kMaxContextTokens));
        return resp;
      }
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
  // A shard backend has no session manager (and nothing to sweep).
  if (sessions_ != nullptr) sessions_->SweepExpired();
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

Response ExplorationService::DoHealth(const Request& req) {
  const OverloadController& overload = dispatcher_->overload();
  const OverloadRung rung = overload.rung();

  json::Object h;
  h.emplace_back("alive", json::Value(true));
  // Every service is complete at construction, so both shapes are ready
  // the moment they answer; "ready" stays on the wire as the documented
  // probe contract (DESIGN.md §11.4).
  h.emplace_back("ready", json::Value(true));
  h.emplace_back("state",
                 json::Value(shard_backend() ? "shard_backend" : "serving"));
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
  // Degraded/shed counters from one relaxed snapshot of atomics: not
  // Stats(), whose memo gauges would lock the screen memo on the loop thread.
  MetricsSnapshot snap =
      metrics_.Snapshot(sessions_ != nullptr ? sessions_->size() : 0);
  json::Object degraded;
  degraded.emplace_back("effort", json::Value(snap.degraded_effort));
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
