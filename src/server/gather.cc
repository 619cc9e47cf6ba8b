#include "server/gather.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/shard_map.h"
#include "common/thread_pool.h"

namespace vexus::server {

namespace {

/// Budget for a ProbeShards health call.
constexpr double kProbeBudgetMs = 20.0;

}  // namespace

// ---------------------------------------------------------------------------
// BackoffSchedule
// ---------------------------------------------------------------------------

double BackoffSchedule::DelayMillis(size_t shard, size_t attempt) const {
  double nominal =
      std::min(base_ms * std::pow(multiplier, static_cast<double>(attempt)),
               max_ms);
  if (!(nominal > 0)) return 0;
  // One PCG stream per (shard, attempt): the delay is a pure function of
  // (seed, shard, attempt), independent of call order — what makes chaos
  // schedules replayable and the determinism property test possible.
  Rng rng(seed, (static_cast<uint64_t>(shard) << 20) | (attempt + 1));
  double factor =
      jitter > 0 ? rng.UniformDouble(1.0 - jitter, 1.0 + jitter) : 1.0;
  return nominal * factor;
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

bool CircuitBreaker::AllowRequest(double now_ms) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ms - opened_at_ms_ >= options_.cooldown_ms) {
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess(double) {
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
}

void CircuitBreaker::RecordFailure(double now_ms) {
  probe_in_flight_ = false;
  ++consecutive_failures_;
  // A failed half-open probe re-opens immediately; a closed breaker trips
  // only at the consecutive-failure threshold.
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= options_.failure_threshold) {
    state_ = State::kOpen;
    opened_at_ms_ = now_ms;
  }
}

CircuitBreaker::State CircuitBreaker::StateAt(double now_ms) const {
  if (state_ == State::kOpen &&
      now_ms - opened_at_ms_ >= options_.cooldown_ms) {
    return State::kHalfOpen;
  }
  return state_;
}

std::string_view CircuitBreaker::StateName(State s) {
  switch (s) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// GatherCoordinator
// ---------------------------------------------------------------------------

struct GatherCoordinator::ShardState {
  std::unique_ptr<ShardTransport> transport;
  /// Guards the breaker and counters; the transport itself is only ever
  /// driven by the one thread running this shard's lap.
  std::mutex mu;
  CircuitBreaker breaker;
  uint32_t user_begin = 0;
  uint32_t user_end = 0;
  uint64_t ok_laps = 0;
  uint64_t failed_laps = 0;
  uint64_t retries = 0;
  uint64_t skipped_open = 0;
  double last_lap_ms = 0;
};

GatherCoordinator::GatherCoordinator(
    std::vector<std::unique_ptr<ShardTransport>> transports, Options options)
    : options_(options) {
  VEXUS_CHECK(!transports.empty());
  const ShardMap map(options_.num_users, transports.size());
  // ShardMap clamps the shard count when the universe is too small for
  // word-aligned ranges; a fleet wider than that cannot match the
  // backends' snapshot sections, so fail loudly at wiring time.
  VEXUS_CHECK(map.num_shards() == transports.size())
      << "universe of " << options_.num_users << " users cannot feed "
      << transports.size() << " shard backends";
  shards_.reserve(transports.size());
  for (size_t s = 0; s < transports.size(); ++s) {
    auto st = std::make_unique<ShardState>();
    st->transport = std::move(transports[s]);
    st->breaker = CircuitBreaker(options_.breaker);
    st->user_begin = static_cast<uint32_t>(map.shard(s).user_begin);
    st->user_end = static_cast<uint32_t>(map.shard(s).user_end);
    shards_.push_back(std::move(st));
  }
}

GatherCoordinator::~GatherCoordinator() = default;

bool GatherCoordinator::CallShard(size_t shard, const Request& req,
                                  const Deadline& deadline,
                                  Response* resp_out) {
  ShardState& st = *shards_[shard];
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    // Deadline before breaker: once AllowRequest admits a half-open probe,
    // the attempt MUST run so the probe flag resolves.
    if (!(deadline.RemainingMillis() > 0)) return false;
    {
      std::lock_guard<std::mutex> lock(st.mu);
      if (!st.breaker.AllowRequest(NowMillis())) {
        ++st.skipped_open;
        return false;
      }
      if (attempt > 0) ++st.retries;
    }
    double budget =
        std::min(deadline.RemainingMillis(), options_.lap_budget_ms);
    Stopwatch lap;
    auto result = st.transport->Call(req, budget);
    bool ok = false;
    if (result.ok()) {
      const Response& resp = result.ValueOrDie();
      // Store fencing: a backend mid-reload answers with a different
      // generation, and one cold-started from a snapshot with another user
      // count owns a different user range. Either way its partials would
      // mix universes, so it is a failed lap, not a fold input.
      ok = resp.status.ok() &&
           (options_.generation == 0 ||
            resp.generation == options_.generation) &&
           (!resp.shard.has_value() || *resp.shard == shard) &&
           resp.user_begin == st.user_begin && resp.user_end == st.user_end;
    }
    if (ok) {
      std::lock_guard<std::mutex> lock(st.mu);
      st.breaker.RecordSuccess(NowMillis());
      ++st.ok_laps;
      st.last_lap_ms = lap.ElapsedMillis();
      *resp_out = std::move(result).ValueOrDie();
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.breaker.RecordFailure(NowMillis());
      ++st.failed_laps;
    }
    st.transport->Reset();
    if (attempt + 1 >= options_.max_attempts) break;
    // Backoff, clamped so sleep + (at least a sliver of) the next call
    // stay inside the deadline; when the delay would eat what remains,
    // retrying is pointless — stop instead of sleeping into the deadline.
    double delay = options_.backoff.DelayMillis(shard, attempt);
    double remaining = deadline.RemainingMillis();
    if (!(remaining > delay)) return false;
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
    }
  }
  return false;
}

GatherCoordinator::Outcome GatherCoordinator::Scatter(
    std::optional<uint32_t> anchor, const std::vector<uint32_t>& selection,
    const std::vector<uint32_t>& trials, const Deadline& deadline) {
  const size_t num_shards = shards_.size();
  const size_t num_trials = trials.size() / 2;
  Outcome out;
  out.shard_ok.assign(num_shards, 0);
  out.partials.assign(num_shards, {});

  Request req;
  req.type = RequestType::kEvalPartial;
  req.generation = options_.generation;
  req.num_shards = static_cast<uint32_t>(num_shards);
  req.anchor = anchor;
  req.selection = selection;
  req.trials = trials;

  auto run_shard = [&](size_t s) {
    Request shard_req = req;
    shard_req.shard = static_cast<uint32_t>(s);
    Response resp;
    if (CallShard(s, shard_req, deadline, &resp) &&
        resp.partials.size() == num_trials) {
      out.partials[s] = std::move(resp.partials);
      out.shard_ok[s] = 1;  // own byte: pool threads write disjoint slots
    }
  };
  if (options_.pool != nullptr) {
    options_.pool->ParallelForChunked(num_shards, 1,
                                      [&](size_t, size_t begin, size_t end) {
                                        for (size_t s = begin; s < end; ++s) {
                                          run_shard(s);
                                        }
                                      });
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }

  size_t covered_users = 0;
  double max_lap = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!out.shard_ok[s]) continue;
    ShardState& st = *shards_[s];
    covered_users += st.user_end - st.user_begin;
    std::lock_guard<std::mutex> lock(st.mu);
    max_lap = std::max(max_lap, st.last_lap_ms);
  }
  out.covered_fraction =
      options_.num_users > 0
          ? static_cast<double>(covered_users) /
                static_cast<double>(options_.num_users)
          : 0.0;
  {
    std::lock_guard<std::mutex> lock(lap_mu_);
    last_lap_delay_ms_ = max_lap;
  }
  return out;
}

size_t GatherCoordinator::ProbeShards() {
  Request req;
  req.type = RequestType::kShardInfo;
  size_t recovered = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardState& st = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(st.mu);
      // Only circuits that have something to prove: closed shards are
      // probed by real traffic, and an open circuit inside its cooldown
      // must stay unprobed (that is what the cooldown is for).
      CircuitBreaker::State state = st.breaker.StateAt(NowMillis());
      if (state == CircuitBreaker::State::kClosed) continue;
      if (!st.breaker.AllowRequest(NowMillis())) continue;
    }
    auto result = st.transport->Call(req, kProbeBudgetMs);
    bool ok = result.ok() && result.ValueOrDie().status.ok() &&
              (options_.generation == 0 ||
               result.ValueOrDie().generation == options_.generation) &&
              result.ValueOrDie().user_begin == st.user_begin &&
              result.ValueOrDie().user_end == st.user_end;
    std::lock_guard<std::mutex> lock(st.mu);
    if (ok) {
      st.breaker.RecordSuccess(NowMillis());
      ++recovered;
    } else {
      st.breaker.RecordFailure(NowMillis());
      st.transport->Reset();
    }
  }
  return recovered;
}

std::vector<ShardMembership> GatherCoordinator::Membership() const {
  std::vector<ShardMembership> out;
  out.reserve(shards_.size());
  for (const auto& st : shards_) {
    std::lock_guard<std::mutex> lock(st->mu);
    ShardMembership m;
    m.address = st->transport->address();
    m.state = st->breaker.StateAt(NowMillis());
    m.user_begin = st->user_begin;
    m.user_end = st->user_end;
    m.ok_laps = st->ok_laps;
    m.failed_laps = st->failed_laps;
    m.retries = st->retries;
    m.skipped_open = st->skipped_open;
    m.consecutive_failures = st->breaker.consecutive_failures();
    out.push_back(std::move(m));
  }
  return out;
}

json::Value GatherCoordinator::MembershipJson() const {
  // Top-level members go in through the out-of-line Set: GCC 12 reports a
  // false -Warray-bounds when the second emplace_back is inlined here.
  json::Value out{json::Object{}};
  out.Set("num_shards", json::Value(shards_.size()));
  out.Set("last_lap_delay_ms", json::Value(last_lap_delay_ms()));
  json::Array arr;
  size_t open = 0;
  std::vector<ShardMembership> members = Membership();
  for (size_t s = 0; s < members.size(); ++s) {
    const ShardMembership& m = members[s];
    if (m.state != CircuitBreaker::State::kClosed) ++open;
    json::Object o;
    o.emplace_back("shard", json::Value(s));
    o.emplace_back("address", json::Value(m.address));
    o.emplace_back("state",
                   json::Value(CircuitBreaker::StateName(m.state)));
    o.emplace_back("user_begin", json::Value(m.user_begin));
    o.emplace_back("user_end", json::Value(m.user_end));
    o.emplace_back("ok_laps", json::Value(m.ok_laps));
    o.emplace_back("failed_laps", json::Value(m.failed_laps));
    o.emplace_back("retries", json::Value(m.retries));
    o.emplace_back("skipped_open", json::Value(m.skipped_open));
    o.emplace_back("consecutive_failures",
                   json::Value(m.consecutive_failures));
    arr.emplace_back(std::move(o));
  }
  out.Set("unhealthy_shards", json::Value(open));
  out.Set("shards", json::Value(std::move(arr)));
  return out;
}

double GatherCoordinator::last_lap_delay_ms() const {
  std::lock_guard<std::mutex> lock(lap_mu_);
  return last_lap_delay_ms_;
}

}  // namespace vexus::server
