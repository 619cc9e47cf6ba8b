// Multi-box scatter-gather integration tests (DESIGN.md §16): real
// snapshot round-trip into shard-backend services, real GatherCoordinator
// with retry/backoff/breaker, real greedy sessions on the coordinator. The
// fleet has two transports: an in-process one (every leg), and
// net::ShardClient over loopback to a TcpServer per backend (the identity
// and kill/recover legs), where a kill drains that server and a revive
// rebinds its port.
//
// The invariants:
//   * identity    — a healthy S-shard fleet answers byte-identically to the
//                   single-process run, S ∈ {2, 4};
//   * degradation — killed / stalled / corrupted / stale / foreign-universe
//                   backends turn into degraded:"partial" answers (or clean
//                   errors), never hung requests: every storm request
//                   completes;
//   * recovery    — once the fault clears, breaker probes flip the shard
//                   closed and full-coverage answers come back.
//
// Chaos legs derive their schedules from VEXUS_CHAOS_SEED like
// chaos_test.cc, so a CI failure reproduces locally with the printed seed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "data/generators/bookcrossing_gen.h"
#include "net/shard_client.h"
#include "net/tcp_server.h"
#include "server/gather.h"
#include "server/service.h"

namespace vexus {
namespace {

using server::ExplorationService;
using server::GatherCoordinator;
using server::Request;
using server::RequestType;
using server::Response;
using server::ServiceOptions;
using server::ShardTransport;

uint64_t ChaosSeed() {
  const char* env = std::getenv("VEXUS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

constexpr uint64_t kGeneration = 7;

enum class Transport { kLocal, kTcp };

/// In-process shard transport: forwards to a backend service's synchronous
/// entry point. Kill() simulates the box vanishing (every call errors
/// without reaching the backend); Revive() brings it back.
class LocalTransport : public ShardTransport {
 public:
  LocalTransport(ExplorationService* svc, std::string name)
      : svc_(svc), name_(std::move(name)) {}

  Result<Response> Call(const Request& req, double budget_ms) override {
    if (dead_.load(std::memory_order_acquire)) {
      return Status::IOError("backend killed: " + name_);
    }
    Request copy = req;
    copy.budget_ms = budget_ms;
    Stopwatch watch;
    Response resp = svc_->Call(std::move(copy));
    // A real wire transport times the lap out; the synchronous in-process
    // call can only notice afterwards. Late answers must not be folded.
    if (watch.ElapsedMillis() > budget_ms) {
      return Status::DeadlineExceeded("lap overran its budget: " + name_);
    }
    return resp;
  }
  void Reset() override { resets_.fetch_add(1); }
  std::string address() const override { return name_; }

  void Kill() { dead_.store(true, std::memory_order_release); }
  void Revive() { dead_.store(false, std::memory_order_release); }
  uint64_t resets() const { return resets_.load(); }

 private:
  ExplorationService* svc_;
  std::string name_;
  std::atomic<bool> dead_{false};
  std::atomic<uint64_t> resets_{0};
};

class GatherChaosTest : public ::testing::Test {
 protected:
  static core::VexusEngine MakeEngine(size_t num_users,
                                      double min_support_fraction) {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = num_users;
    cfg.num_books = num_users * 5 / 4;
    cfg.num_ratings = num_users * 6;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = min_support_fraction;
    return core::VexusEngine::Preprocess(
               data::BookCrossingGenerator::Generate(cfg), opt, {})
        .ValueOrDie();
  }
  static void SetUpTestSuite() {
    engine_ = new core::VexusEngine(MakeEngine(400, 0.03));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static ServiceOptions SessionOptions() {
    ServiceOptions opts;
    opts.session_template.greedy.k = 4;
    // Generous budgets: identity legs must never be truncated differently
    // by the anytime deadline on the (slower) gathered path.
    opts.session_template.greedy.time_limit_ms = 500;
    opts.num_workers = 2;
    opts.dispatcher.default_budget_ms = 2000;
    return opts;
  }

  struct FleetSpec {
    size_t num_shards = 2;
    Transport transport = Transport::kLocal;
    /// Store generation of shard s (default kGeneration) — the stale leg.
    std::vector<uint64_t> generations;
    /// Engine whose snapshot shard s cold-starts from (default engine_) —
    /// the foreign-universe leg.
    std::vector<const core::VexusEngine*> stores;
  };

  /// S backend services, each cold-started from its section of an
  /// S-section snapshot, behind a gather coordinator over engine_.
  struct Fleet {
    Transport transport = Transport::kLocal;
    std::vector<std::unique_ptr<ExplorationService>> backends;
    std::vector<LocalTransport*> local;  // kLocal: borrowed, coordinator owns
    std::vector<std::unique_ptr<net::TcpServer>> servers;  // kTcp
    std::vector<uint16_t> ports;                           // kTcp
    std::unique_ptr<ExplorationService> coordinator;

    /// Backend s vanishes: the in-process transport fails every call, or
    /// the backend's server drains and its port closes.
    void Kill(size_t s) {
      if (transport == Transport::kLocal) return local[s]->Kill();
      servers[s]->Drain();
      servers[s].reset();
    }
    /// Backend s comes back: over TCP, a new server rebinds its old port.
    void Revive(size_t s) {
      if (transport == Transport::kLocal) return local[s]->Revive();
      for (int attempt = 0; attempt < 50; ++attempt) {
        if (Serve(s, ports[s])) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      ADD_FAILURE() << "could not rebind 127.0.0.1:" << ports[s];
    }
    /// Starts a one-loop server for backend s on `port` (0 = ephemeral).
    bool Serve(size_t s, uint16_t port) {
      net::TcpServerOptions opts;
      opts.port = port;
      opts.num_loops = 1;
      servers[s] = std::make_unique<net::TcpServer>(backends[s].get(), opts);
      if (servers[s]->Start().ok()) return true;
      servers[s].reset();
      return false;
    }
  };

  Fleet MakeFleet(const FleetSpec& spec) {
    // One file per test: ctest runs tests as parallel processes, and a
    // shared name let one test remove the file while another loaded it.
    const std::string path =
        ::testing::TempDir() + "gather_chaos_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        StrCat("_s", spec.num_shards) + ".snap";
    core::SnapshotSaveOptions save;
    save.num_shards = spec.num_shards;
    save.sync = false;

    Fleet fleet;
    fleet.transport = spec.transport;
    std::vector<std::unique_ptr<ShardTransport>> transports;
    for (size_t s = 0; s < spec.num_shards; ++s) {
      const core::VexusEngine* store =
          s < spec.stores.size() ? spec.stores[s] : engine_;
      EXPECT_TRUE(
          core::SaveSnapshot(store->groups(), store->index(), path, save)
              .ok());
      auto shard = core::LoadSnapshotShard(path, s);
      std::remove(path.c_str());  // the section is in memory now
      EXPECT_TRUE(shard.ok()) << shard.status().ToString();
      ServiceOptions bopts;
      bopts.num_workers = 2;
      const uint64_t gen =
          s < spec.generations.size() ? spec.generations[s] : kGeneration;
      fleet.backends.push_back(std::make_unique<ExplorationService>(
          std::move(shard).ValueOrDie(), gen, bopts));
      if (spec.transport == Transport::kLocal) {
        auto transport = std::make_unique<LocalTransport>(
            fleet.backends.back().get(), "local-shard-" + std::to_string(s));
        fleet.local.push_back(transport.get());
        transports.push_back(std::move(transport));
      } else {
        fleet.servers.emplace_back();
        EXPECT_TRUE(fleet.Serve(s, 0)) << "backend " << s << " cannot listen";
        fleet.ports.push_back(fleet.servers[s] ? fleet.servers[s]->port() : 0);
        transports.push_back(
            std::make_unique<net::ShardClient>("127.0.0.1", fleet.ports[s]));
      }
    }

    fleet.coordinator =
        std::make_unique<ExplorationService>(engine_, SessionOptions());
    GatherCoordinator::Options gopts;
    gopts.num_users = engine_->groups().num_users();
    gopts.generation = kGeneration;
    gopts.backoff.seed = ChaosSeed();
    gopts.breaker.cooldown_ms = 100;  // fast recovery legs
    fleet.coordinator->ConfigureGather(std::make_unique<GatherCoordinator>(
        std::move(transports), gopts));
    return fleet;
  }

  void ExpectHealthyFleetIsByteIdenticalToLocal(Transport transport);
  void ExpectKilledBackendDegradesThenRecovers(Transport transport);

  static Response Start(ExplorationService& svc, const std::string& id) {
    Request req;
    req.type = RequestType::kStartSession;
    req.session_id = id;
    req.k = 4;
    return svc.Call(std::move(req));
  }

  static Response Select(ExplorationService& svc, const std::string& id,
                         uint32_t group) {
    Request req;
    req.type = RequestType::kSelectGroup;
    req.session_id = id;
    req.group = group;
    return svc.Call(std::move(req));
  }

  /// Starts a session and clicks its first group; returns the click's
  /// answer (or the start's, if it failed). A start may be served from the
  /// engine's first-screen memo without a gather lap, but a click always
  /// runs greedy over the fleet.
  static Response StartAndClick(ExplorationService& svc,
                                const std::string& id) {
    Response resp = Start(svc, id);
    if (!resp.status.ok() || resp.groups.empty()) return resp;
    return Select(svc, id, resp.groups[0].id);
  }

  static std::vector<uint32_t> Ids(const Response& resp) {
    std::vector<uint32_t> ids;
    for (const auto& g : resp.groups) ids.push_back(g.id);
    return ids;
  }

  static core::VexusEngine* engine_;
};

core::VexusEngine* GatherChaosTest::engine_ = nullptr;

/// Byte-identity: gathered screens vs the plain single-process run, over a
/// 3-step walk.
void GatherChaosTest::ExpectHealthyFleetIsByteIdenticalToLocal(
    Transport transport) {
  // Once a start has stored the first screen in the engine's memo, later
  // starts (the plain service's included) are served from there. So the
  // gathered start is also held to an unbounded local SelectInitial: in a
  // fresh process the S=2 coordinator's start is the one that computes it.
  core::GreedyOptions unbounded = SessionOptions().session_template.greedy;
  unbounded.time_limit_ms = core::GreedyOptions::kUnboundedTimeLimit;
  const core::GreedySelection initial =
      core::GreedySelector(&engine_->groups(), &engine_->index())
          .SelectInitial(core::FeedbackVector(&engine_->tokens()), unbounded);
  for (size_t num_shards : {2u, 4u}) {
    FleetSpec spec;
    spec.num_shards = num_shards;
    spec.transport = transport;
    Fleet fleet = MakeFleet(spec);
    ExplorationService plain(engine_, SessionOptions());

    const std::string sid = "identity-" + std::to_string(num_shards);
    Response g = Start(*fleet.coordinator, sid);
    Response p = Start(plain, sid);
    ASSERT_TRUE(g.status.ok()) << g.status.ToString();
    EXPECT_EQ(Ids(g), initial.groups) << "shards=" << num_shards;
    EXPECT_EQ(g.coverage, initial.quality.coverage);
    EXPECT_EQ(g.diversity, initial.quality.diversity);
    for (int step = 0; step < 4; ++step) {
      ASSERT_TRUE(g.status.ok()) << g.status.ToString();
      ASSERT_TRUE(p.status.ok()) << p.status.ToString();
      EXPECT_FALSE(g.degraded.has_value())
          << "healthy fleet degraded: " << *g.degraded;
      // Identity is exact — same group ids, bit-equal quality doubles.
      EXPECT_EQ(Ids(g), Ids(p)) << "shards=" << num_shards << " step=" << step;
      EXPECT_EQ(g.coverage, p.coverage);
      EXPECT_EQ(g.diversity, p.diversity);
      if (step == 3 || g.groups.empty()) break;
      const uint32_t pick = g.groups[step % g.groups.size()].id;
      g = Select(*fleet.coordinator, sid, pick);
      p = Select(plain, sid, pick);
    }
  }
}

TEST_F(GatherChaosTest, HealthyFleetIsByteIdenticalToLocal) {
  ExpectHealthyFleetIsByteIdenticalToLocal(Transport::kLocal);
}

TEST_F(GatherChaosTest, HealthyTcpFleetIsByteIdenticalToLocal) {
  ExpectHealthyFleetIsByteIdenticalToLocal(Transport::kTcp);
}

/// Kill a backend mid-storm: every request still completes — ok (possibly
/// degraded:"partial" with covered_fraction < 1) or a clean overload code —
/// and the dead shard's breaker opens. Revival + probes restore coverage.
void GatherChaosTest::ExpectKilledBackendDegradesThenRecovers(
    Transport transport) {
  FleetSpec spec;
  spec.transport = transport;
  Fleet fleet = MakeFleet(spec);
  std::atomic<uint64_t> sessions{0}, completed{0}, degraded_partial{0}, bad{0};
  std::atomic<int> warmed{0};
  std::atomic<bool> killed{false};

  // The kill lands once every thread has finished one session, and each
  // thread keeps going until it has run kSessions sessions and at least one
  // began after the kill — however fast a session is, the storm spans it.
  const int kThreads = 3, kSessions = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool began_after_kill = false;
      for (int i = 0; i < kSessions || !began_after_kill; ++i) {
        began_after_kill = killed.load();
        sessions.fetch_add(1);
        const std::string sid =
            "storm-" + std::to_string(t) + "-" + std::to_string(i);
        Response resp = Start(*fleet.coordinator, sid);
        if (resp.status.ok() && !resp.groups.empty()) {
          resp = Select(*fleet.coordinator, sid, resp.groups[0].id);
        }
        completed.fetch_add(1);
        if (resp.status.ok()) {
          if (resp.degraded.has_value() && *resp.degraded == "partial") {
            degraded_partial.fetch_add(1);
            if (!resp.covered_fraction.has_value() ||
                *resp.covered_fraction >= 1.0 ||
                *resp.covered_fraction <= 0.0) {
              bad.fetch_add(1);
            }
          }
        } else if (resp.status.code() != StatusCode::kResourceExhausted &&
                   resp.status.code() != StatusCode::kDeadlineExceeded) {
          bad.fetch_add(1);  // faults must degrade, not leak backend errors
        }
        if (i == 0) warmed.fetch_add(1);
      }
    });
  }
  while (warmed.load() < kThreads) std::this_thread::yield();
  fleet.Kill(0);
  killed.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(completed.load(), sessions.load());  // zero hangs
  EXPECT_GE(sessions.load(), static_cast<uint64_t>(kThreads) * kSessions);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(degraded_partial.load(), 0u) << "kill was never observed";
  if (transport == Transport::kLocal) {
    EXPECT_GT(fleet.local[0]->resets(), 0u);
  }

  auto membership = fleet.coordinator->gather()->Membership();
  ASSERT_EQ(membership.size(), 2u);
  EXPECT_GT(membership[0].failed_laps, 0u);

  // Recovery: revive, let the breaker cool down, probe, and expect a
  // full-coverage answer again.
  fleet.Revive(0);
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    fleet.coordinator->gather()->ProbeShards();
    Response resp =
        StartAndClick(*fleet.coordinator, "recovered-" + std::to_string(i));
    recovered = resp.status.ok() && !resp.degraded.has_value();
  }
  EXPECT_TRUE(recovered) << "fleet never returned to full coverage";
  auto after = fleet.coordinator->gather()->Membership();
  EXPECT_EQ(after[0].state, server::CircuitBreaker::State::kClosed);
}

TEST_F(GatherChaosTest, KilledBackendDegradesThenRecovers) {
  ExpectKilledBackendDegradesThenRecovers(Transport::kLocal);
}

TEST_F(GatherChaosTest, KilledTcpBackendDegradesThenRecovers) {
  ExpectKilledBackendDegradesThenRecovers(Transport::kTcp);
}

/// Stall chaos: every other eval_partial burns most of the lap budget. The
/// retry/backoff path must absorb it — requests complete (ok or degraded),
/// and the coordinator's counters show the faults actually landed.
TEST_F(GatherChaosTest, StalledBackendIsRetriedOrShedNeverHung) {
  Fleet fleet = MakeFleet(FleetSpec());

  failpoint::Policy stall;
  stall.mode = failpoint::Policy::Mode::kEveryNth;
  stall.nth = 2;
  stall.code = StatusCode::kOk;  // sleep only
  stall.sleep_ms = 80;           // > lap_budget_ms (50): a missed lap
  failpoint::ScopedFailpoint fp("service.eval_partial", stall);

  for (int i = 0; i < 6; ++i) {
    const std::string sid = "stall-" + std::to_string(i);
    Response resp = StartAndClick(*fleet.coordinator, sid);
    ASSERT_TRUE(resp.status.ok() ||
                resp.status.code() == StatusCode::kDeadlineExceeded ||
                resp.status.code() == StatusCode::kResourceExhausted)
        << resp.status.ToString();
  }
  EXPECT_GT(fp.fires(), 0u) << "stall site never reached";
  auto membership = fleet.coordinator->gather()->Membership();
  uint64_t failed = 0, retries = 0;
  for (const auto& m : membership) {
    failed += m.failed_laps;
    retries += m.retries;
  }
  EXPECT_GT(failed + retries, 0u) << "stalls never surfaced to the gather";
}

/// Slow but healthy laps are service time, not queueing: every
/// eval_partial takes 8 ms — above the ladder's 5 ms target, well inside the
/// 50 ms lap budget — and the coordinator's ladder (on, as in production)
/// must stay at normal with every screen full quality.
TEST_F(GatherChaosTest, SlowHealthyLapsDoNotDegradeScreens) {
  Fleet fleet = MakeFleet(FleetSpec());
  ASSERT_TRUE(fleet.coordinator->dispatcher().overload().options().enabled);

  failpoint::Policy slow;
  slow.mode = failpoint::Policy::Mode::kAlways;
  slow.code = StatusCode::kOk;  // sleep only
  slow.sleep_ms = 8;
  failpoint::ScopedFailpoint fp("service.eval_partial", slow);

  for (int i = 0; i < 12; ++i) {
    const std::string sid = "slow-" + std::to_string(i);
    Response resp = Start(*fleet.coordinator, sid);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_FALSE(resp.degraded.has_value())
        << "start " << i << " degraded: " << *resp.degraded;
    ASSERT_FALSE(resp.groups.empty());
    resp = Select(*fleet.coordinator, sid, resp.groups[0].id);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_FALSE(resp.degraded.has_value())
        << "select " << i << " degraded: " << *resp.degraded;
    EXPECT_EQ(fleet.coordinator->dispatcher().overload().rung(),
              server::OverloadRung::kNormal)
        << "after session " << i;
  }
  EXPECT_GT(fp.fires(), 0u) << "slow site never reached";
  EXPECT_EQ(fleet.coordinator->dispatcher().overload().escalations(), 0u);
}

/// Corruption chaos: eval_partial randomly answers IOError (seeded, so the
/// schedule replays). Same liveness bar; after the fault clears, probes
/// bring every breaker back to closed.
TEST_F(GatherChaosTest, CorruptBackendAnswersAreDroppedFromTheFold) {
  Fleet fleet = MakeFleet(FleetSpec());
  {
    failpoint::Policy flaky;
    flaky.mode = failpoint::Policy::Mode::kProbability;
    flaky.probability = 0.5;
    flaky.seed = ChaosSeed();
    flaky.code = StatusCode::kIOError;
    failpoint::ScopedFailpoint fp("service.eval_partial.fail", flaky);

    for (int i = 0; i < 8; ++i) {
      const std::string sid = "corrupt-" + std::to_string(i);
      Response resp = StartAndClick(*fleet.coordinator, sid);
      ASSERT_TRUE(resp.status.ok() ||
                  resp.status.code() == StatusCode::kDeadlineExceeded ||
                  resp.status.code() == StatusCode::kResourceExhausted)
          << resp.status.ToString();
      if (resp.status.ok() && resp.degraded.has_value()) {
        EXPECT_EQ(*resp.degraded, "partial");
      }
    }
    EXPECT_GT(fp.fires(), 0u);
  }

  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    fleet.coordinator->gather()->ProbeShards();
    Response resp =
        StartAndClick(*fleet.coordinator, "post-corrupt-" + std::to_string(i));
    recovered = resp.status.ok() && !resp.degraded.has_value();
  }
  EXPECT_TRUE(recovered);
}

/// A backend serving the wrong store generation (mid-reload) must never be
/// folded: its shard counts as failed, the answer degrades to partial with
/// the surviving shard's fraction.
TEST_F(GatherChaosTest, StaleGenerationShardIsNeverFolded) {
  FleetSpec spec;
  spec.generations = {kGeneration, kGeneration + 1};
  Fleet fleet = MakeFleet(spec);

  Response resp = StartAndClick(*fleet.coordinator, "stale");
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ASSERT_TRUE(resp.degraded.has_value()) << "stale shard was folded";
  EXPECT_EQ(*resp.degraded, "partial");
  ASSERT_TRUE(resp.covered_fraction.has_value());
  EXPECT_GT(*resp.covered_fraction, 0.0);
  EXPECT_LT(*resp.covered_fraction, 1.0);

  auto membership = fleet.coordinator->gather()->Membership();
  EXPECT_GT(membership[1].failed_laps, 0u);
  EXPECT_EQ(membership[0].failed_laps, 0u);
}

/// A backend cold-started from a snapshot with another user count owns
/// another user range, so its partials count another universe. It must
/// never be folded, although its generation matches and every group id the
/// coordinator sends exists in its (larger) store.
TEST_F(GatherChaosTest, ForeignUniverseShardIsNeverFolded) {
  const core::VexusEngine foreign = MakeEngine(600, 0.02);
  ASSERT_GE(foreign.groups().size(), engine_->groups().size());
  FleetSpec spec;
  spec.stores = {engine_, &foreign};
  Fleet fleet = MakeFleet(spec);

  Response resp = StartAndClick(*fleet.coordinator, "foreign");
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ASSERT_TRUE(resp.degraded.has_value()) << "foreign shard was folded";
  EXPECT_EQ(*resp.degraded, "partial");
  ASSERT_TRUE(resp.covered_fraction.has_value());
  EXPECT_GT(*resp.covered_fraction, 0.0);
  EXPECT_LT(*resp.covered_fraction, 1.0);

  auto membership = fleet.coordinator->gather()->Membership();
  EXPECT_EQ(membership[1].ok_laps, 0u) << "a foreign reply was folded";
  EXPECT_GT(membership[1].failed_laps, 0u);
  EXPECT_EQ(membership[0].failed_laps, 0u);
}

}  // namespace
}  // namespace vexus
