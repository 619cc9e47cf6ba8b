// Gather coordinator for the multi-box scatter-gather greedy
// (DESIGN.md §16): the serving-layer implementation of
// core::RemoteTrialScatterer that owns S shard transports and keeps the
// fleet's failure handling out of the greedy loop.
//
// Ownership diagram (one coordinator per service):
//
//   ExplorationService ── session_template.greedy.remote_scatter ──┐
//        │                                                          ▼
//        │ owns                                        core::GreedySelector
//        ▼                                                 (per request)
//   GatherCoordinator ── owns S× ─┬─ ShardState
//                                 │    ├─ CircuitBreaker   (this header)
//                                 │    ├─ retry/backoff schedule
//                                 │    └─ ShardTransport   (abstract here;
//                                 │         net::ShardClient over TCP, or a
//                                 │         scripted stub in tests)
//                                 └─ membership/stats table → get_stats
//
// Failure discipline per shard and per lap:
//   · the lap budget is carved from the request deadline — a retry's
//     backoff sleep plus its call budget never exceed what remains, so the
//     scatter returns before admission control would time the request out;
//   · backoff is exponential with *deterministic* seeded jitter: the delay
//     for (shard, attempt) is a pure function of (seed, shard, attempt),
//     so chaos runs with a pinned VEXUS_CHAOS_SEED replay byte-identical
//     schedules;
//   · each shard carries a circuit breaker (closed → open after N
//     consecutive failures → half-open after a cooldown → closed on the
//     next success). Open circuits are skipped without consuming budget;
//     the half-open probe is the next real scatter call (or an explicit
//     ProbeShards() health sweep).
//
// Degradation: shards that miss the lap are dropped from the fold. The
// Outcome's covered_fraction tells the greedy (and through it the service)
// how much of the user universe the answer actually covered — the
// degraded:"partial" contract. A scatter with zero surviving shards still
// returns (empty-handed) before the deadline: never a hung request.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "core/greedy.h"
#include "server/json.h"
#include "server/protocol.h"

namespace vexus {
class ThreadPool;
}

namespace vexus::server {

/// Deterministic exponential backoff: DelayMillis(shard, attempt) =
/// min(base · multiplier^attempt, max) · (1 ± jitter), where the jitter
/// factor is drawn from a PCG stream keyed by (seed, shard, attempt) — a
/// pure function, so retry schedules are reproducible under a pinned seed
/// and property-testable without clocks.
struct BackoffSchedule {
  double base_ms = 2.0;
  double multiplier = 2.0;
  double max_ms = 50.0;
  /// Jitter amplitude as a fraction of the nominal delay, in [0, 1).
  double jitter = 0.2;
  uint64_t seed = 0;

  double DelayMillis(size_t shard, size_t attempt) const;
};

/// Per-shard circuit breaker. All time flows through explicit `now_ms`
/// parameters (any monotonic millisecond clock) so scripted tests drive
/// exact transitions without sleeping.
class CircuitBreaker {
 public:
  struct Options {
    /// Consecutive failures that trip closed → open.
    size_t failure_threshold = 3;
    /// Open → half-open after this long.
    double cooldown_ms = 200.0;
  };

  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// True when a request may be sent now. In half-open, exactly one probe
  /// is admitted until its RecordSuccess/RecordFailure lands.
  bool AllowRequest(double now_ms);
  void RecordSuccess(double now_ms);
  void RecordFailure(double now_ms);

  /// State as of `now_ms` (open flips to half-open once the cooldown
  /// elapses, even before the next AllowRequest).
  State StateAt(double now_ms) const;

  size_t consecutive_failures() const { return consecutive_failures_; }

  static std::string_view StateName(State s);

 private:
  Options options_;
  State state_ = State::kClosed;
  size_t consecutive_failures_ = 0;
  double opened_at_ms_ = 0;
  bool probe_in_flight_ = false;
};

/// One shard backend as the coordinator sees it: a blocking call with a
/// millisecond budget. Implementations: net::ShardClient (TCP with
/// reconnect + hedging), in-process adapters (gather_chaos_test), scripted
/// stubs (gather_test). Calls for different shards run concurrently; the
/// coordinator never calls one shard's transport from two threads at once.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  /// Sends `req` and awaits the response within `budget_ms` (Deadline
  /// semantics: NaN/<=0 fail fast). Transport errors, timeouts, and
  /// decode failures surface as non-OK Results.
  virtual Result<Response> Call(const Request& req, double budget_ms) = 0;
  /// Drops any cached connection so the next Call reconnects fresh —
  /// invoked after a failed lap.
  virtual void Reset() {}
  virtual std::string address() const = 0;
};

/// Aggregate per-shard counters for get_stats' membership table.
struct ShardMembership {
  std::string address;
  CircuitBreaker::State state = CircuitBreaker::State::kClosed;
  uint32_t user_begin = 0;
  uint32_t user_end = 0;
  uint64_t ok_laps = 0;
  uint64_t failed_laps = 0;
  uint64_t retries = 0;
  uint64_t skipped_open = 0;
  size_t consecutive_failures = 0;
};

class GatherCoordinator : public core::RemoteTrialScatterer {
 public:
  struct Options {
    /// User universe size — shard user ranges follow ShardMap(num_users,
    /// S), word-aligned exactly like the backends' snapshot sections.
    size_t num_users = 0;
    /// Expected backend store generation; a response carrying a different
    /// one is a *stale* shard (mid-reload) and counts as a failure, as does
    /// one whose user range is not this shard's ShardMap range.
    uint64_t generation = 0;
    /// Attempts per shard per scatter (1 = no retry).
    size_t max_attempts = 3;
    /// Budget for a single attempt's call, before deadline clamping.
    double lap_budget_ms = 50.0;
    BackoffSchedule backoff;
    CircuitBreaker::Options breaker;
    /// Scatters shards in parallel when set (caller participates); serial
    /// otherwise. Not owned.
    ThreadPool* pool = nullptr;
  };

  /// One transport per shard, index = shard id. Transports are owned.
  GatherCoordinator(std::vector<std::unique_ptr<ShardTransport>> transports,
                    Options options);
  ~GatherCoordinator() override;  // out-of-line: ShardState is incomplete here

  /// core::RemoteTrialScatterer — one greedy pass's trial batch.
  Outcome Scatter(std::optional<uint32_t> anchor,
                  const std::vector<uint32_t>& selection,
                  const std::vector<uint32_t>& trials,
                  const Deadline& deadline) override;

  /// Health-probes shards whose breaker admits a request (half-open after
  /// cooldown, or closed), flipping recovered shards back toward closed.
  /// Returns how many probes succeeded.
  size_t ProbeShards();

  size_t num_shards() const { return shards_.size(); }

  std::vector<ShardMembership> Membership() const;
  /// The get_stats "gather" object: per-shard membership + aggregate laps.
  json::Value MembershipJson() const;

  /// Slowest successful lap of the most recent Scatter, ms (reported in the
  /// get_stats "gather" object; service time, so it never feeds the
  /// overload ladder).
  double last_lap_delay_ms() const;

 private:
  struct ShardState;

  /// Runs one shard's lap loop (retry + backoff + breaker) for `req`.
  /// Fills partials via `resp_out` on success.
  bool CallShard(size_t shard, const Request& req, const Deadline& deadline,
                 Response* resp_out);

  double NowMillis() const { return clock_.ElapsedMillis(); }

  Options options_;
  Stopwatch clock_;  // breaker/backoff time base (monotonic ms)
  std::vector<std::unique_ptr<ShardState>> shards_;
  mutable std::mutex lap_mu_;
  double last_lap_delay_ms_ = 0;
};

}  // namespace vexus::server
