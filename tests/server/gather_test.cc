// GatherCoordinator / CircuitBreaker / BackoffSchedule — the coordinator
// side of the multi-box scatter-gather (DESIGN.md §16), driven entirely by
// scripted in-process transports:
//
//   · backoff schedules are pure functions of (seed, shard, attempt) —
//     reproducible, bounded by [nominal·(1−j), nominal·(1+j)], capped;
//   · the breaker walks closed → open → half-open → closed under exactly
//     the scripted failure/success sequence, admits one half-open probe;
//   · a scatter's retries + backoff sleeps never push past the deadline
//     (property-tested over random budgets);
//   · failed / stale-generation / misrouted / foreign-range shards drop out
//     of the fold and covered_fraction reports exactly the surviving user
//     range.
#include "server/gather.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/shard_map.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace vexus::server {
namespace {

constexpr size_t kUsers = 1024;  // 16 words: splits 2/4 ways cleanly

class ScriptedTransport : public ShardTransport {
 public:
  using Script = std::function<Result<Response>(const Request&, double)>;

  explicit ScriptedTransport(Script script) : script_(std::move(script)) {}

  Result<Response> Call(const Request& req, double budget_ms) override {
    ++calls_;
    return script_(req, budget_ms);
  }
  void Reset() override { ++resets_; }
  std::string address() const override { return "scripted"; }

  size_t calls() const { return calls_.load(); }
  size_t resets() const { return resets_.load(); }

 private:
  Script script_;
  std::atomic<size_t> calls_{0};
  std::atomic<size_t> resets_{0};
};

/// Stamps `resp` with the user range a backend cold-started from a
/// `num_users` snapshot owns for the shard `req` addresses.
void OwnRange(const Request& req, size_t num_users, Response* resp) {
  const ShardMap::Range range =
      ShardMap(num_users, *req.num_shards).shard(*req.shard);
  resp->user_begin = range.user_begin;
  resp->user_end = range.user_end;
}

/// A healthy backend for shard `expect_shard`: echoes identity and returns
/// `value` for every trial.
ScriptedTransport::Script Healthy(uint64_t generation, uint32_t expect_shard,
                                  uint32_t value = 1) {
  return [=](const Request& req, double) -> Result<Response> {
    Response resp;
    resp.type = req.type;
    resp.generation = generation;
    resp.shard = req.shard;
    OwnRange(req, kUsers, &resp);
    EXPECT_EQ(*req.shard, expect_shard);
    resp.partials.assign(req.trials.size() / 2, value);
    return resp;
  };
}

ScriptedTransport::Script AlwaysError() {
  return [](const Request&, double) -> Result<Response> {
    return Status::IOError("scripted failure");
  };
}

GatherCoordinator::Options FastOptions(uint64_t generation = 3) {
  GatherCoordinator::Options opts;
  opts.num_users = kUsers;
  opts.generation = generation;
  opts.max_attempts = 3;
  opts.lap_budget_ms = 20;
  opts.backoff.base_ms = 1;
  opts.backoff.max_ms = 4;
  opts.backoff.seed = 7;
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown_ms = 40;
  return opts;
}

std::vector<uint32_t> SomeTrials() { return {5, 0, 6, 1, 7, 0}; }

// ---------------------------------------------------------------------------
// BackoffSchedule
// ---------------------------------------------------------------------------

TEST(BackoffScheduleTest, PureFunctionOfSeedShardAttempt) {
  BackoffSchedule a;
  a.seed = 42;
  BackoffSchedule b = a;
  for (size_t shard = 0; shard < 4; ++shard) {
    for (size_t attempt = 0; attempt < 6; ++attempt) {
      EXPECT_DOUBLE_EQ(a.DelayMillis(shard, attempt),
                       b.DelayMillis(shard, attempt));
      // Call order must not matter: interleave reads of other cells.
      b.DelayMillis(3 - shard, 5 - attempt);
      EXPECT_DOUBLE_EQ(a.DelayMillis(shard, attempt),
                       b.DelayMillis(shard, attempt));
    }
  }
  BackoffSchedule other = a;
  other.seed = 43;
  EXPECT_NE(a.DelayMillis(0, 1), other.DelayMillis(0, 1));
}

TEST(BackoffScheduleTest, BoundedByJitterBandAndCap) {
  BackoffSchedule s;
  s.base_ms = 2;
  s.multiplier = 2;
  s.max_ms = 10;
  s.jitter = 0.2;
  s.seed = 9;
  for (size_t shard = 0; shard < 8; ++shard) {
    for (size_t attempt = 0; attempt < 10; ++attempt) {
      double nominal = std::min(2.0 * std::pow(2.0, attempt), 10.0);
      double d = s.DelayMillis(shard, attempt);
      EXPECT_GE(d, nominal * 0.8 - 1e-12);
      EXPECT_LE(d, nominal * 1.2 + 1e-12);
    }
  }
  s.jitter = 0;
  EXPECT_DOUBLE_EQ(s.DelayMillis(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.DelayMillis(1, 5), 10.0);  // capped
}

// ---------------------------------------------------------------------------
// CircuitBreaker — exact transitions under a scripted sequence.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, ClosedToOpenToHalfOpenToClosed) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 3;
  opts.cooldown_ms = 100;
  CircuitBreaker b(opts);
  double now = 0;

  EXPECT_EQ(b.StateAt(now), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.AllowRequest(now));
  b.RecordFailure(now);
  EXPECT_TRUE(b.AllowRequest(now));
  b.RecordFailure(now);
  EXPECT_EQ(b.StateAt(now), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.AllowRequest(now));
  b.RecordFailure(now);  // third consecutive failure trips it
  EXPECT_EQ(b.StateAt(now), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.consecutive_failures(), 3u);

  // Cooling down: requests rejected without touching the backend.
  EXPECT_FALSE(b.AllowRequest(now + 50));
  EXPECT_EQ(b.StateAt(now + 99), CircuitBreaker::State::kOpen);

  // Cooldown over: exactly one half-open probe is admitted.
  EXPECT_EQ(b.StateAt(now + 100), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.AllowRequest(now + 100));
  EXPECT_FALSE(b.AllowRequest(now + 101));  // probe in flight
  b.RecordSuccess(now + 102);
  EXPECT_EQ(b.StateAt(now + 102), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 0u);
}

TEST(CircuitBreakerTest, FailedProbeReopensImmediately) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 2;
  opts.cooldown_ms = 10;
  CircuitBreaker b(opts);
  b.RecordFailure(0);
  b.RecordFailure(0);
  EXPECT_EQ(b.StateAt(0), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(b.AllowRequest(10));  // half-open probe
  b.RecordFailure(11);              // one failure re-opens, no threshold
  EXPECT_EQ(b.StateAt(11), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.AllowRequest(15));
  // And the cooldown restarts from the re-open.
  EXPECT_TRUE(b.AllowRequest(21));
  b.RecordSuccess(22);
  EXPECT_EQ(b.StateAt(22), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreaker::Options opts;
  opts.failure_threshold = 3;
  CircuitBreaker b(opts);
  b.RecordFailure(0);
  b.RecordFailure(0);
  b.RecordSuccess(0);
  b.RecordFailure(0);
  b.RecordFailure(0);
  EXPECT_EQ(b.StateAt(0), CircuitBreaker::State::kClosed);
  b.RecordFailure(0);
  EXPECT_EQ(b.StateAt(0), CircuitBreaker::State::kOpen);
}

// ---------------------------------------------------------------------------
// GatherCoordinator over scripted transports.
// ---------------------------------------------------------------------------

TEST(GatherCoordinatorTest, HealthyScatterFoldsAllShards) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(
      std::make_unique<ScriptedTransport>(Healthy(3, 0, /*value=*/2)));
  transports.push_back(
      std::make_unique<ScriptedTransport>(Healthy(3, 1, /*value=*/5)));
  GatherCoordinator coord(std::move(transports), FastOptions());

  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(200));
  ASSERT_EQ(out.shard_ok.size(), 2u);
  EXPECT_TRUE(out.shard_ok[0]);
  EXPECT_TRUE(out.shard_ok[1]);
  EXPECT_DOUBLE_EQ(out.covered_fraction, 1.0);
  ASSERT_EQ(out.partials[0].size(), 3u);
  EXPECT_EQ(out.partials[0][0], 2u);
  EXPECT_EQ(out.partials[1][0], 5u);
}

// Pool threads record their own shard's success concurrently. Eight shards
// keep every flag inside one 64-bit word, where a packed vector<bool> would
// lose updates (and ThreadSanitizer reports the race); one byte per shard
// must keep all eight, scatter after scatter.
TEST(GatherCoordinatorTest, PooledScatterKeepsEveryShardFlag) {
  constexpr size_t kShards = 8;
  std::vector<std::unique_ptr<ShardTransport>> transports;
  for (size_t s = 0; s < kShards; ++s) {
    transports.push_back(std::make_unique<ScriptedTransport>(
        Healthy(3, static_cast<uint32_t>(s))));
  }
  ThreadPool pool(4);
  GatherCoordinator::Options opts = FastOptions();
  opts.pool = &pool;
  GatherCoordinator coord(std::move(transports), opts);

  for (int round = 0; round < 200; ++round) {
    auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                             Deadline::AfterMillis(1000));
    ASSERT_EQ(out.shard_ok.size(), kShards);
    for (size_t s = 0; s < kShards; ++s) {
      ASSERT_TRUE(out.shard_ok[s]) << "round " << round << " shard " << s;
    }
    ASSERT_DOUBLE_EQ(out.covered_fraction, 1.0) << "round " << round;
  }
}

TEST(GatherCoordinatorTest, DeadShardDegradesCoverageAndOpensBreaker) {
  auto* dead = new ScriptedTransport(AlwaysError());
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::unique_ptr<ShardTransport>(dead));
  transports.push_back(std::make_unique<ScriptedTransport>(Healthy(3, 1)));
  GatherCoordinator coord(std::move(transports), FastOptions());

  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(500));
  EXPECT_FALSE(out.shard_ok[0]);
  EXPECT_TRUE(out.shard_ok[1]);
  EXPECT_NEAR(out.covered_fraction, 0.5, 1e-9);
  EXPECT_EQ(dead->calls(), 3u);   // max_attempts
  EXPECT_EQ(dead->resets(), 3u);  // reconnect after every failed lap

  // Three consecutive failures tripped the breaker: the next scatter skips
  // the dead shard without calling it.
  auto again = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                             Deadline::AfterMillis(500));
  EXPECT_FALSE(again.shard_ok[0]);
  EXPECT_EQ(dead->calls(), 3u);  // unchanged: open circuit short-circuits

  auto members = coord.Membership();
  EXPECT_NE(members[0].state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(members[0].failed_laps, 3u);
  EXPECT_GE(members[0].skipped_open, 1u);
  EXPECT_EQ(members[1].state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(members[1].failed_laps, 0u);
}

TEST(GatherCoordinatorTest, StaleGenerationIsAFailedLap) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(
      std::make_unique<ScriptedTransport>(Healthy(/*generation=*/99, 0)));
  transports.push_back(std::make_unique<ScriptedTransport>(Healthy(3, 1)));
  GatherCoordinator coord(std::move(transports), FastOptions(/*generation=*/3));

  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(500));
  EXPECT_FALSE(out.shard_ok[0]);  // mid-reload backend must not feed the fold
  EXPECT_TRUE(out.shard_ok[1]);
}

// A backend loaded from a snapshot with another user count owns another
// range; its partials count a different universe and must not be folded,
// nor may its health probe close the breaker the failed laps opened.
TEST(GatherCoordinatorTest, ForeignUserRangeIsAFailedLapAndProbe) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::make_unique<ScriptedTransport>(Healthy(3, 0)));
  transports.push_back(std::make_unique<ScriptedTransport>(
      [](const Request& req, double) -> Result<Response> {
        Response resp;
        resp.type = req.type;
        resp.generation = 3;
        // Shard 1 of 2 over kUsers + 128 users; the coordinator expects
        // [512, 1024).
        resp.user_begin = 576;
        resp.user_end = kUsers + 128;
        resp.partials.assign(req.trials.size() / 2, 1);
        return resp;
      }));
  GatherCoordinator::Options opts = FastOptions();
  opts.breaker.cooldown_ms = 20;
  GatherCoordinator coord(std::move(transports), opts);

  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(500));
  EXPECT_TRUE(out.shard_ok[0]);
  EXPECT_FALSE(out.shard_ok[1]);
  EXPECT_NEAR(out.covered_fraction, 0.5, 1e-9);
  EXPECT_EQ(coord.Membership()[1].failed_laps, 3u);

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(coord.ProbeShards(), 0u);
  EXPECT_NE(coord.Membership()[1].state, CircuitBreaker::State::kClosed);
}

TEST(GatherCoordinatorTest, MisroutedShardEchoIsAFailedLap) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  // A backend that thinks it is shard 1 answering shard 0's lap.
  transports.push_back(std::make_unique<ScriptedTransport>(
      [](const Request& req, double) -> Result<Response> {
        Response resp;
        resp.type = req.type;
        resp.generation = 3;
        resp.shard = *req.shard + 1;
        resp.partials.assign(req.trials.size() / 2, 1);
        return resp;
      }));
  transports.push_back(std::make_unique<ScriptedTransport>(Healthy(3, 1)));
  GatherCoordinator coord(std::move(transports), FastOptions());

  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(500));
  EXPECT_FALSE(out.shard_ok[0]);
  EXPECT_TRUE(out.shard_ok[1]);
}

TEST(GatherCoordinatorTest, AllShardsDeadStillReturnsBeforeDeadline) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::make_unique<ScriptedTransport>(AlwaysError()));
  transports.push_back(std::make_unique<ScriptedTransport>(AlwaysError()));
  GatherCoordinator coord(std::move(transports), FastOptions());

  Stopwatch watch;
  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(100));
  EXPECT_LE(watch.ElapsedMillis(), 100.0 + 20.0);
  EXPECT_FALSE(out.shard_ok[0]);
  EXPECT_FALSE(out.shard_ok[1]);
  EXPECT_DOUBLE_EQ(out.covered_fraction, 0.0);
}

// Property: whatever the budget, the per-shard lap loop (attempt + backoff
// sleep, repeated) finishes inside it. The transport fails instantly, so
// any overrun would come from the coordinator's own sleeps — exactly the
// bug class this pins down.
TEST(GatherCoordinatorTest, RetriesNeverOverrunTheDeadline) {
  Rng rng(2024);
  for (int iter = 0; iter < 25; ++iter) {
    double budget = 1.0 + rng.UniformDouble(0.0, 30.0);
    std::vector<std::unique_ptr<ShardTransport>> transports;
    transports.push_back(std::make_unique<ScriptedTransport>(AlwaysError()));
    GatherCoordinator::Options opts = FastOptions();
    opts.num_users = 64;  // one word → one shard
    opts.max_attempts = 10;
    opts.backoff.base_ms = budget / 4;
    opts.backoff.max_ms = budget;
    opts.backoff.seed = static_cast<uint64_t>(iter);
    GatherCoordinator coord(std::move(transports), opts);

    Stopwatch watch;
    coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                  Deadline::AfterMillis(budget));
    // Slack for scheduler noise only — never a whole extra backoff+lap.
    EXPECT_LE(watch.ElapsedMillis(), budget + 15.0)
        << "iter=" << iter << " budget=" << budget;
  }
}

TEST(GatherCoordinatorTest, HalfOpenProbeRecoversThroughScatter) {
  std::atomic<bool> healthy{false};
  auto* transport = new ScriptedTransport(
      [&healthy](const Request& req, double) -> Result<Response> {
        if (!healthy.load()) return Status::IOError("down");
        Response resp;
        resp.type = req.type;
        resp.generation = 3;
        resp.shard = req.shard;
        OwnRange(req, 64, &resp);
        resp.partials.assign(req.trials.size() / 2, 1);
        return resp;
      });
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::unique_ptr<ShardTransport>(transport));
  GatherCoordinator::Options opts = FastOptions();
  opts.num_users = 64;
  opts.breaker.cooldown_ms = 30;
  GatherCoordinator coord(std::move(transports), opts);

  // Trip the breaker.
  coord.Scatter(std::nullopt, {1, 2}, SomeTrials(), Deadline::AfterMillis(200));
  EXPECT_NE(coord.Membership()[0].state, CircuitBreaker::State::kClosed);
  size_t calls_down = transport->calls();

  // Backend comes back; after the cooldown one scatter lap doubles as the
  // half-open probe and closes the circuit.
  healthy.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto out = coord.Scatter(std::nullopt, {1, 2}, SomeTrials(),
                           Deadline::AfterMillis(200));
  EXPECT_TRUE(out.shard_ok[0]);
  EXPECT_EQ(transport->calls(), calls_down + 1);
  EXPECT_EQ(coord.Membership()[0].state, CircuitBreaker::State::kClosed);
}

TEST(GatherCoordinatorTest, ProbeShardsRecoversWithoutTraffic) {
  std::atomic<bool> healthy{false};
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::make_unique<ScriptedTransport>(
      [&healthy](const Request& req, double) -> Result<Response> {
        if (!healthy.load()) return Status::IOError("down");
        Response resp;  // shard_info: the backend's identity, no partials
        resp.type = req.type;
        resp.generation = 3;
        resp.user_begin = 0;
        resp.user_end = 64;
        return resp;
      }));
  GatherCoordinator::Options opts = FastOptions();
  opts.num_users = 64;
  opts.breaker.cooldown_ms = 20;
  GatherCoordinator coord(std::move(transports), opts);

  coord.Scatter(std::nullopt, {1, 2}, SomeTrials(), Deadline::AfterMillis(200));
  EXPECT_NE(coord.Membership()[0].state, CircuitBreaker::State::kClosed);

  EXPECT_EQ(coord.ProbeShards(), 0u);  // inside cooldown: no probe at all

  healthy.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(coord.ProbeShards(), 1u);
  EXPECT_EQ(coord.Membership()[0].state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(coord.ProbeShards(), 0u);  // closed shards are left alone
}

TEST(GatherCoordinatorTest, MembershipJsonShape) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.push_back(std::make_unique<ScriptedTransport>(Healthy(3, 0)));
  transports.push_back(std::make_unique<ScriptedTransport>(AlwaysError()));
  GatherCoordinator coord(std::move(transports), FastOptions());
  coord.Scatter(std::nullopt, {1, 2}, SomeTrials(), Deadline::AfterMillis(500));

  std::string dump = coord.MembershipJson().Dump();
  EXPECT_NE(dump.find("\"num_shards\":2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"unhealthy_shards\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"state\":\"open\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"state\":\"closed\""), std::string::npos) << dump;
}

}  // namespace
}  // namespace vexus::server
