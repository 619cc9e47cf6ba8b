// Chaos harness — seed-reproducible fault schedules against the full
// serving stack (ISSUE 5 tentpole, DESIGN.md §12).
//
// Each test arms a set of failpoints with deterministic policies derived
// from one seed, drives concurrent explorer traffic (or the snapshot
// machinery) through the *production* code paths, and asserts the
// robustness invariants that must survive any fault mix:
//
//   * conservation — every request submitted is retired exactly once and
//     lands in exactly one outcome counter; the in-flight gauge drains;
//   * no torn state — a failed snapshot save never destroys the previous
//     good snapshot, and a corrupted payload is *detected* at load;
//   * liveness — the service keeps answering (possibly degraded) and shuts
//     down cleanly with faults still armed.
//
// Seeds: the schedule is a pure function of VEXUS_CHAOS_SEED (default 1),
// so a CI failure line "seed=17" reproduces locally with
//   VEXUS_CHAOS_SEED=17 ./vexus_integration_tests --gtest_filter='Chaos*'
// CI sweeps seeds under ASan/UBSan and TSan; zero sanitizer reports is part
// of the acceptance gate. Thread interleaving is intentionally left free —
// it is part of the search space.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "data/generators/bookcrossing_gen.h"
#include "server/service.h"

namespace vexus {
namespace {

using server::ExplorationService;
using server::Request;
using server::RequestType;
using server::Response;
using server::ServiceOptions;

uint64_t ChaosSeed() {
  const char* env = std::getenv("VEXUS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 400;
    cfg.num_books = 500;
    cfg.num_ratings = 2400;
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

  static ServiceOptions FastOptions() {
    ServiceOptions opts;
    opts.session_template.greedy.k = 4;
    opts.session_template.greedy.time_limit_ms = 30;
    opts.num_workers = 4;
    opts.dispatcher.default_budget_ms = 60;
    return opts;
  }

  static core::VexusEngine* engine_;
};

core::VexusEngine* ChaosTest::engine_ = nullptr;

failpoint::Policy Prob(double p, uint64_t seed, StatusCode code,
                       double sleep_ms = 0.0) {
  failpoint::Policy pol;
  pol.mode = failpoint::Policy::Mode::kProbability;
  pol.probability = p;
  pol.seed = seed;
  pol.code = code;
  pol.sleep_ms = sleep_ms;
  return pol;
}

failpoint::Policy Once(StatusCode code = StatusCode::kIOError) {
  failpoint::Policy pol;
  pol.mode = failpoint::Policy::Mode::kOnce;
  pol.code = code;
  return pol;
}

/// One chaotic explorer: start → (select | context | backtrack | unlearn |
/// health)* → end, with a budget mix. A backtrack goes to a random earlier
/// step and an unlearn deletes a token from the last get_context, so the
/// session's feedback replay runs under the faults too. Every response must
/// carry a well-formed status; faults show up as error codes, never as
/// crashes or hangs.
void ChaosExplorer(ExplorationService* svc, uint64_t seed, int id, int rounds,
                   std::atomic<uint64_t>* sent,
                   std::atomic<uint64_t>* got_ok,
                   std::atomic<uint64_t>* got_err) {
  auto call = [&](Request req) {
    sent->fetch_add(1);
    Response resp = svc->Call(std::move(req));
    if (resp.status.ok()) {
      got_ok->fetch_add(1);
    } else {
      got_err->fetch_add(1);
    }
    return resp;
  };
  const std::string sid = StrCat("chaos", id);
  // Cheap per-thread LCG: the schedule stays a function of (seed, id).
  uint64_t x = seed * 6364136223846793005ULL + static_cast<uint64_t>(id) + 1;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };

  Request start;
  start.type = RequestType::kStartSession;
  start.session_id = sid;
  Response screen = call(start);
  std::vector<uint32_t> context;  // tokens of the last get_context

  for (int r = 0; r < rounds; ++r) {
    switch (next() % 6) {
      case 0:
      case 1: {
        if (screen.status.ok() && !screen.groups.empty()) {
          Request sel;
          sel.type = RequestType::kSelectGroup;
          sel.session_id = sid;
          sel.group = screen.groups[next() % screen.groups.size()].id;
          if (next() % 4 == 0) sel.budget_ms = 5.0;  // tight budget
          Response nxt = call(std::move(sel));
          if (nxt.status.ok() && !nxt.groups.empty()) screen = std::move(nxt);
        } else {
          screen = call(start);  // session may have been fault-killed
        }
        break;
      }
      case 2: {
        Request ctx;
        ctx.type = RequestType::kGetContext;
        ctx.session_id = sid;
        ctx.top_k = 5;
        Response got = call(std::move(ctx));
        if (got.status.ok()) {
          context.clear();
          for (const auto& t : got.context) context.push_back(t.token);
        }
        break;
      }
      case 3: {
        Request bt;
        bt.type = RequestType::kBacktrack;
        bt.session_id = sid;
        bt.step = next() % std::max<uint64_t>(screen.num_steps, 1);
        Response back = call(std::move(bt));
        if (back.status.ok() && !back.groups.empty()) screen = std::move(back);
        break;
      }
      case 4: {
        Request un;
        un.type = RequestType::kUnlearn;
        un.session_id = sid;
        un.token = context.empty() ? 0 : context[next() % context.size()];
        call(std::move(un));
        break;
      }
      default: {
        Request h;
        h.type = RequestType::kHealth;
        Response resp = call(std::move(h));
        // Health is answered inline: it must succeed even mid-chaos.
        EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
        break;
      }
    }
  }
  Request end;
  end.type = RequestType::kEndSession;
  end.session_id = sid;
  call(std::move(end));
}

TEST_F(ChaosTest, ServingPathSurvivesSeededFaultSchedule) {
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));

  // The fault schedule: every serving-path site armed at once, rates chosen
  // so a run sees plenty of faults yet most traffic still succeeds. Seeds
  // are decorrelated per site (site ordinal mixed into the policy seed).
  failpoint::ScopedFailpoint fp_admit(
      "dispatcher.admit", Prob(0.05, seed * 11 + 1, StatusCode::kUnknown));
  failpoint::ScopedFailpoint fp_exec(
      "dispatcher.execute", Prob(0.05, seed * 11 + 2, StatusCode::kAborted));
  failpoint::ScopedFailpoint fp_create(
      "session_manager.create",
      Prob(0.10, seed * 11 + 3, StatusCode::kResourceExhausted));
  failpoint::ScopedFailpoint fp_acquire(
      "session_manager.acquire",
      Prob(0.05, seed * 11 + 4, StatusCode::kNotFound));
  failpoint::ScopedFailpoint fp_submit(
      "threadpool.submit", Prob(0.02, seed * 11 + 5, StatusCode::kUnknown));
  // Sleep-only site in the greedy pass loop: burns the request deadline so
  // the anytime path truncates (no error injected, code kOk).
  failpoint::ScopedFailpoint fp_greedy(
      "greedy.pass", Prob(0.10, seed * 11 + 6, StatusCode::kOk,
                          /*sleep_ms=*/2.0));
  // The same before each prior of the seed: a run that burns its budget
  // there truncates the seed (k priors, then the deadline).
  failpoint::ScopedFailpoint fp_seed(
      "greedy.seed", Prob(0.10, seed * 11 + 7, StatusCode::kOk,
                          /*sleep_ms=*/2.0));
  failpoint::ScopedFailpoint fp_teardown("dispatcher.teardown",
                                         Once(StatusCode::kOk));

  std::atomic<uint64_t> sent{0}, got_ok{0}, got_err{0};
  server::MetricsSnapshot snap;
  {
    ExplorationService svc(engine_, FastOptions());
    constexpr int kExplorers = 6;
    constexpr int kRounds = 30;
    std::vector<std::thread> threads;
    threads.reserve(kExplorers);
    for (int i = 0; i < kExplorers; ++i) {
      threads.emplace_back(ChaosExplorer, &svc, seed, i, kRounds, &sent,
                           &got_ok, &got_err);
    }
    for (auto& t : threads) t.join();

    // Liveness after the storm: the service still answers a clean request.
    Request h;
    h.type = RequestType::kHealth;
    sent.fetch_add(1);
    Response alive = svc.Call(std::move(h));
    EXPECT_TRUE(alive.status.ok());
    (alive.status.ok() ? got_ok : got_err).fetch_add(1);

    snap = svc.Stats();
    EXPECT_EQ(svc.dispatcher().queue_depth(), 0u) << "in-flight gauge leaked";
  }  // service torn down with faults still armed → dispatcher.teardown fires

  // Conservation: the client saw every request exactly once, and the
  // outcome counters partition the total. (Health is answered inline and by
  // design never enters the dispatcher's metrics, so client-side counts are
  // the ground truth here.)
  EXPECT_EQ(got_ok.load() + got_err.load(), sent.load());
  EXPECT_EQ(snap.ok + snap.deadline_exceeded + snap.not_found + snap.shed +
                snap.other_errors,
            snap.TotalRequests())
      << "metrics outcome counters do not partition the request count";
  EXPECT_GT(got_ok.load(), 0u) << "chaos rates drowned all traffic";
  EXPECT_GT(got_err.load(), 0u) << "fault schedule never landed a fault";

  // Coverage gate (acceptance): the schedule must *reach* >= 8 distinct
  // sites, and the probabilistic ones must actually fire.
  struct SiteCover {
    const char* name;
    const failpoint::ScopedFailpoint* fp;
  };
  const SiteCover cover[] = {
      {"dispatcher.admit", &fp_admit},     {"dispatcher.execute", &fp_exec},
      {"session_manager.create", &fp_create},
      {"session_manager.acquire", &fp_acquire},
      {"threadpool.submit", &fp_submit},   {"greedy.pass", &fp_greedy},
      {"greedy.seed", &fp_seed},
      {"dispatcher.teardown", &fp_teardown},
  };
  int reached = 0;
  for (const SiteCover& c : cover) {
    EXPECT_GT(c.fp->hits(), 0u) << c.name << " was never reached";
    if (c.fp->hits() > 0) ++reached;
  }
  // Fires are probabilistic; assert them only where the reach count makes a
  // zero-fire run astronomically unlikely (admit/execute see every request:
  // hundreds of reaches at p=0.05). Low-traffic sites (create: one reach per
  // explorer) legitimately may not fire on some seeds — reach coverage above
  // is their gate.
  for (const auto* fp : {&fp_admit, &fp_exec, &fp_acquire}) {
    EXPECT_GT(fp->fires(), 0u)
        << fp->site() << " armed at p>=0.05 never fired over "
        << fp->hits() << " reaches";
  }
  EXPECT_EQ(fp_teardown.hits(), 1u) << "teardown site must fire exactly once";
  // The snapshot chaos test below covers 7 more sites; this storm alone
  // reaches 8 distinct sites:
  EXPECT_GE(reached, 8);
}

TEST_F(ChaosTest, SessionEvictionUnderChaosKeepsCountsConsistent) {
  // TTL evictions racing live traffic: sessions expire mid-conversation,
  // the evict site burns wall clock inside the sweep, and every later touch
  // of an evicted session must answer NotFound — never a crash or a stuck
  // lease.
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  ServiceOptions opts = FastOptions();
  opts.sessions.ttl_seconds = 0.02;  // everything idle expires almost at once
  failpoint::ScopedFailpoint fp_evict(
      "session_manager.evict",
      Prob(0.5, seed, StatusCode::kOk, /*sleep_ms=*/1.0));
  ExplorationService svc(engine_, opts);

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      Request start;
      start.type = RequestType::kStartSession;
      start.session_id = StrCat("ttl", round) + "_" +
                         std::to_string(i);
      EXPECT_TRUE(svc.Call(std::move(start)).status.ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // get_stats sweeps; armed evict site sleeps inside the sweep.
    Request gs;
    gs.type = RequestType::kGetStats;
    EXPECT_TRUE(svc.Call(std::move(gs)).status.ok());
  }
  EXPECT_GT(fp_evict.hits(), 0u) << "no eviction ever happened";

  // A stale id after the sweep answers NotFound cleanly.
  Request sel;
  sel.type = RequestType::kSelectGroup;
  sel.session_id = "ttl0_0";
  sel.group = 0;
  Response resp = svc.Call(std::move(sel));
  if (!resp.status.ok()) {
    EXPECT_TRUE(resp.status.IsNotFound()) << resp.status.ToString();
  }
  server::MetricsSnapshot snap = svc.Stats();
  EXPECT_GT(snap.evictions_ttl, 0u);
  EXPECT_EQ(snap.ok + snap.deadline_exceeded + snap.not_found + snap.shed +
                snap.other_errors,
            snap.TotalRequests());
}

// ---------------------------------------------------------------------------
// Snapshot durability under injected storage faults.
// ---------------------------------------------------------------------------

std::string SnapshotPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST_F(ChaosTest, SnapshotSaveFaultsNeverDestroyThePreviousSnapshot) {
  // The durable-rename contract: whatever fails mid-save (open, a short
  // write, fsync, the rename itself), the previous good snapshot must still
  // load. One failure mode per iteration, kOnce so the retry succeeds.
  const std::string path = SnapshotPath("chaos_atomic.snap");
  core::SnapshotSaveOptions save;
  save.sync = true;  // exercise the real fsync path
  ASSERT_TRUE(
      core::SaveSnapshot(engine_->groups(), engine_->index(), path, save)
          .ok());

  const char* fault_sites[] = {
      "snapshot.save.open",
      "snapshot.save.short_write",
      "snapshot.save.fsync",
      "snapshot.save.rename",
  };
  for (const char* site : fault_sites) {
    SCOPED_TRACE(site);
    failpoint::ScopedFailpoint fp(site, Once(StatusCode::kIOError));
    Status st = core::SaveSnapshot(engine_->groups(), engine_->index(), path,
                                   save);
    EXPECT_FALSE(st.ok()) << site << " fired but save succeeded";
    EXPECT_EQ(fp.fires(), 1u);
    // The previous good snapshot survived the failed overwrite.
    auto loaded = core::LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok())
        << site << " destroyed the existing snapshot: "
        << loaded.status().ToString();
    EXPECT_EQ(loaded->groups.size(), engine_->groups().size());
    // And with the fault disarmed by kOnce, the retry goes through.
    EXPECT_TRUE(
        core::SaveSnapshot(engine_->groups(), engine_->index(), path, save)
            .ok())
        << site << " retry failed";
  }
  std::remove(path.c_str());
}

TEST_F(ChaosTest, CorruptedSnapshotIsDetectedNeverTrusted) {
  const std::string path = SnapshotPath("chaos_corrupt.snap");
  core::SnapshotSaveOptions save;
  save.sync = false;

  // Bit flip on the write path: save "succeeds" (the disk lied), but the
  // CRC-32C section sums catch it at load.
  {
    failpoint::ScopedFailpoint fp("snapshot.save.corrupt",
                                  Once(StatusCode::kOk));
    ASSERT_TRUE(
        core::SaveSnapshot(engine_->groups(), engine_->index(), path, save)
            .ok());
    EXPECT_EQ(fp.fires(), 1u);
    auto loaded = core::LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "corrupted snapshot loaded successfully";
  }

  // Bit flip on the read path of a good file: same detection, and the file
  // itself is untouched — the next clean load succeeds.
  ASSERT_TRUE(
      core::SaveSnapshot(engine_->groups(), engine_->index(), path, save)
          .ok());
  {
    failpoint::ScopedFailpoint fp("snapshot.load.corrupt",
                                  Once(StatusCode::kOk));
    auto loaded = core::LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "in-memory corruption went undetected";
    EXPECT_EQ(fp.fires(), 1u);
  }
  {
    failpoint::ScopedFailpoint fp("snapshot.load.read",
                                  Once(StatusCode::kIOError));
    auto loaded = core::LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok());
  }
  EXPECT_TRUE(core::LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vexus
