#include "server/session_manager.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus::server {
namespace {

class SessionManagerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 400;
    cfg.num_books = 500;
    cfg.num_ratings = 2500;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = 0.03;
    engine_ = new core::VexusEngine(std::move(
        core::VexusEngine::Preprocess(
            data::BookCrossingGenerator::Generate(cfg), opt, {})
            .ValueOrDie()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static core::SessionOptions FastSession() {
    core::SessionOptions opt;
    opt.greedy.k = 3;
    opt.greedy.time_limit_ms = 50;
    return opt;
  }

  static core::VexusEngine* engine_;
};

core::VexusEngine* SessionManagerTest::engine_ = nullptr;

TEST_F(SessionManagerTest, CreateAcquireRoundTrip) {
  SessionManager mgr(engine_, {});
  auto gen = mgr.Create("alice", FastSession());
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_GT(*gen, 0u);
  EXPECT_EQ(mgr.size(), 1u);

  auto lease = mgr.Acquire("alice");
  ASSERT_TRUE(lease.ok());
  auto l = std::move(lease).ValueOrDie();
  EXPECT_EQ(l.generation(), *gen);
  l->Start();
  EXPECT_EQ(l->NumSteps(), 1u);
}

TEST_F(SessionManagerTest, DuplicateCreateFailsAlreadyExists) {
  SessionManager mgr(engine_, {});
  ASSERT_TRUE(mgr.Create("x", FastSession()).ok());
  auto dup = mgr.Create("x", FastSession());
  EXPECT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(mgr.size(), 1u);  // failed create must not leak a slot
}

TEST_F(SessionManagerTest, UnknownSessionIsNotFound) {
  SessionManager mgr(engine_, {});
  EXPECT_TRUE(mgr.Acquire("ghost").status().IsNotFound());
  EXPECT_TRUE(mgr.Remove("ghost").status().IsNotFound());
}

TEST_F(SessionManagerTest, StaleGenerationIsNotFound) {
  SessionManager mgr(engine_, {});
  auto gen1 = mgr.Create("s", FastSession());
  ASSERT_TRUE(gen1.ok());
  ASSERT_TRUE(mgr.Remove("s", *gen1).ok());
  auto gen2 = mgr.Create("s", FastSession());
  ASSERT_TRUE(gen2.ok());
  EXPECT_NE(*gen1, *gen2);
  // A client still holding the old generation must not reach the new session.
  EXPECT_TRUE(mgr.Acquire("s", *gen1).status().IsNotFound());
  EXPECT_TRUE(mgr.Remove("s", *gen1).status().IsNotFound());
  EXPECT_TRUE(mgr.Acquire("s", *gen2).ok());
  // Generation 0 skips the fence.
  EXPECT_TRUE(mgr.Acquire("s", 0).ok());
}

TEST_F(SessionManagerTest, RemoveReturnsDigest) {
  SessionManager mgr(engine_, {});
  ASSERT_TRUE(mgr.Create("d", FastSession()).ok());
  {
    auto l = mgr.Acquire("d").ValueOrDie();
    const auto& first = l->Start();
    l->SelectGroup(first.groups[0]);
    l->BookmarkGroup(first.groups[0]);
    l->BookmarkUser(1);
    l->BookmarkUser(2);
  }
  auto digest = mgr.Remove("d");
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->num_steps, 2u);
  EXPECT_EQ(digest->memo_groups, 1u);
  EXPECT_EQ(digest->memo_users, 2u);
  EXPECT_TRUE(digest->last_selected.has_value());
  EXPECT_EQ(mgr.size(), 0u);
  EXPECT_TRUE(mgr.Acquire("d").status().IsNotFound());
}

TEST_F(SessionManagerTest, AdmissionControlEvictsLruIdleThenRejects) {
  SessionManagerOptions opts;
  opts.max_sessions = 2;
  opts.ttl_seconds = 3600;  // TTL out of the picture
  ServiceMetrics metrics;
  SessionManager mgr(engine_, opts, &metrics);
  ASSERT_TRUE(mgr.Create("a", FastSession()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(mgr.Create("b", FastSession()).ok());
  // Touch "a" so "b" becomes the LRU victim.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  { auto l = mgr.Acquire("a").ValueOrDie(); }

  // Full manager: creating "c" evicts the LRU idle session ("b").
  ASSERT_TRUE(mgr.Create("c", FastSession()).ok());
  EXPECT_EQ(mgr.size(), 2u);
  EXPECT_TRUE(mgr.Acquire("b").status().IsNotFound());
  EXPECT_TRUE(mgr.Acquire("a").ok());
  EXPECT_EQ(metrics.Snapshot().evictions_lru, 1u);

  // With every session leased (busy), nothing is evictable: reject.
  auto la = mgr.Acquire("a").ValueOrDie();
  auto lc = mgr.Acquire("c").ValueOrDie();
  auto rejected = mgr.Create("d", FastSession());
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_EQ(metrics.Snapshot().admission_rejected, 1u);
}

TEST_F(SessionManagerTest, TtlSweepEvictsIdleSessions) {
  SessionManagerOptions opts;
  opts.ttl_seconds = 0.2;  // 200 ms
  ServiceMetrics metrics;
  SessionManager mgr(engine_, opts, &metrics);
  ASSERT_TRUE(mgr.Create("old", FastSession()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Before "old" expires, so this Create sweeps nothing.
  ASSERT_TRUE(mgr.Create("fresh", FastSession()).ok());
  ASSERT_EQ(mgr.size(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  size_t evicted = mgr.SweepExpired();
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(mgr.size(), 1u);
  EXPECT_TRUE(mgr.Acquire("old").status().IsNotFound());
  EXPECT_TRUE(mgr.Acquire("fresh").ok());
  EXPECT_EQ(metrics.Snapshot().evictions_ttl, 1u);
}

TEST_F(SessionManagerTest, AcquireOfAHotSessionEvictsEveryExpiredIdleSession) {
  // Sessions that no request touches again must still expire: traffic on
  // one hot session is enough. The first Acquire after the cold sessions'
  // TTL sweeps the whole table.
  SessionManagerOptions opts;
  opts.ttl_seconds = 0.2;  // 200 ms
  ServiceMetrics metrics;
  SessionManager mgr(engine_, opts, &metrics);
  constexpr int kCold = 16;
  for (int i = 0; i < kCold; ++i) {
    ASSERT_TRUE(mgr.Create(StrCat("cold", i), FastSession()).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Created halfway through the cold sessions' TTL: before they expire,
  // and alive when they have.
  ASSERT_TRUE(mgr.Create("hot", FastSession()).ok());
  ASSERT_EQ(mgr.size(), static_cast<size_t>(kCold + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_EQ(metrics.Snapshot().evictions_ttl, 0u) << "nothing swept yet";

  ASSERT_TRUE(mgr.Acquire("hot").ok());
  EXPECT_EQ(mgr.size(), 1u);
  EXPECT_EQ(metrics.Snapshot().evictions_ttl, static_cast<uint64_t>(kCold));
  for (int i = 0; i < kCold; ++i) {
    EXPECT_TRUE(mgr.Acquire(StrCat("cold", i)).status().IsNotFound()) << i;
  }
}

TEST_F(SessionManagerTest, ExpiryGateNeverEvictsASessionTouchedWithinItsTtl) {
  // Both sessions are created together, so the gate opens at their shared
  // expiry; "young" is touched before it. The sweep that "old"'s expiry
  // opens must take "old" alone.
  SessionManagerOptions opts;
  opts.ttl_seconds = 0.2;  // 200 ms
  ServiceMetrics metrics;
  SessionManager mgr(engine_, opts, &metrics);
  ASSERT_TRUE(mgr.Create("old", FastSession()).ok());
  ASSERT_TRUE(mgr.Create("young", FastSession()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(mgr.Acquire("young").ok());  // before the gate: no sweep
  ASSERT_EQ(mgr.size(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Past "old"'s expiry, within "young"'s: this Acquire sweeps first.
  EXPECT_TRUE(mgr.Acquire("old").status().IsNotFound());
  EXPECT_EQ(metrics.Snapshot().evictions_ttl, 1u);
  EXPECT_EQ(mgr.size(), 1u);
  EXPECT_TRUE(mgr.Acquire("young").ok());
}

TEST_F(SessionManagerTest, ConcurrentChurnConservesSessions) {
  // Creates, leases and removals race LRU evictions and TTL sweeps from
  // four threads over one table: every session created ends removed,
  // evicted or live, and the cap holds.
  SessionManagerOptions opts;
  opts.max_sessions = 8;
  opts.ttl_seconds = 0.001;  // 1 ms: sweeps run throughout
  ServiceMetrics metrics;
  SessionManager mgr(engine_, opts, &metrics);
  std::atomic<uint64_t> created{0};
  std::atomic<uint64_t> removed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        // Sixteen names over an eight-session cap: creates evict.
        const std::string id = StrCat("c", (t * 7 + i) % 16);
        if (i % 5 < 3) {
          if (mgr.Create(id, FastSession()).ok()) created.fetch_add(1);
        } else if (i % 5 == 3) {
          auto lease = mgr.Acquire(id);
          if (lease.ok()) {
            EXPECT_EQ(lease->session()->NumSteps(), 0u);
          }
        } else if (mgr.Remove(id).ok()) {
          removed.fetch_add(1);
        }
        EXPECT_LE(mgr.size(), opts.max_sessions);
        if (i % 25 == 0) {  // idle past the TTL now and then
          std::this_thread::sleep_for(std::chrono::microseconds(1500));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GT(snap.evictions_lru, 0u);
  EXPECT_EQ(created.load(),
            removed.load() + snap.evictions_lru + snap.evictions_ttl +
                mgr.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mgr.SweepExpired();
  EXPECT_EQ(mgr.size(), 0u);
}

TEST_F(SessionManagerTest, TtlNeverEvictsLeasedSession) {
  SessionManagerOptions opts;
  opts.ttl_seconds = 0.01;
  SessionManager mgr(engine_, opts);
  ASSERT_TRUE(mgr.Create("busy", FastSession()).ok());
  auto l = mgr.Acquire("busy").ValueOrDie();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(mgr.SweepExpired(), 0u);  // leased -> skipped
  EXPECT_EQ(mgr.size(), 1u);
}

TEST_F(SessionManagerTest, LeaseIsExclusive) {
  SessionManager mgr(engine_, {});
  ASSERT_TRUE(mgr.Create("excl", FastSession()).ok());
  std::atomic<int> in_critical{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto l = mgr.Acquire("excl");
        ASSERT_TRUE(l.ok());
        int now = in_critical.fetch_add(1) + 1;
        int prev = max_seen.load();
        while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::yield();
        in_critical.fetch_sub(1);
        total.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(max_seen.load(), 1);  // never two leases at once
  EXPECT_EQ(total.load(), 200);
}

TEST_F(SessionManagerTest, RemoveWaitsForInFlightLease) {
  SessionManager mgr(engine_, {});
  ASSERT_TRUE(mgr.Create("race", FastSession()).ok());
  std::atomic<bool> lease_released{false};
  std::thread holder([&] {
    auto l = mgr.Acquire("race").ValueOrDie();
    l->Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    lease_released.store(true);
    // lease drops here
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto digest = mgr.Remove("race");  // must block until the holder is done
  EXPECT_TRUE(lease_released.load());
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(digest->num_steps, 1u);
  holder.join();
}

TEST_F(SessionManagerTest, ManySessionsAcrossShards) {
  SessionManagerOptions opts;
  opts.max_sessions = 64;
  SessionManager mgr(engine_, opts);
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(mgr.Create(StrCat("s", i), FastSession()).ok());
  }
  EXPECT_EQ(mgr.size(), 48u);
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(mgr.Acquire(StrCat("s", i)).ok());
  }
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(mgr.Remove(StrCat("s", i)).ok());
  }
  EXPECT_EQ(mgr.size(), 0u);
}

}  // namespace
}  // namespace vexus::server
