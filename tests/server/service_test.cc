#include "server/service.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
#include "server/json.h"

namespace vexus::server {
namespace {

class ServiceTest : public ::testing::Test {
 public:
  /// Shared warm engine for helpers outside the fixture (snapshot writers).
  static core::VexusEngine* SharedEngine() { return engine_; }

 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 500;
    cfg.num_books = 600;
    cfg.num_ratings = 3000;
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
    opts.session_template.greedy.time_limit_ms = 50;
    opts.num_workers = 4;
    return opts;
  }

  static Request Start(const std::string& id) {
    Request req;
    req.type = RequestType::kStartSession;
    req.session_id = id;
    return req;
  }
  static Request Select(const std::string& id, uint32_t group) {
    Request req;
    req.type = RequestType::kSelectGroup;
    req.session_id = id;
    req.group = group;
    return req;
  }
  static Request End(const std::string& id) {
    Request req;
    req.type = RequestType::kEndSession;
    req.session_id = id;
    return req;
  }

  static core::VexusEngine* engine_;
};

core::VexusEngine* ServiceTest::engine_ = nullptr;

TEST_F(ServiceTest, FullExplorationLoop) {
  ExplorationService svc(engine_, FastOptions());

  Response started = svc.Call(Start("alice"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  ASSERT_FALSE(started.groups.empty());
  EXPECT_EQ(started.num_steps, 1u);
  EXPECT_GT(started.generation, 0u);
  EXPECT_GT(started.coverage, 0.0);
  for (const GroupView& g : started.groups) {
    EXPECT_GT(g.size, 0u);
    EXPECT_FALSE(g.description.empty());
  }

  Response selected = svc.Call(Select("alice", started.groups[0].id));
  ASSERT_TRUE(selected.status.ok()) << selected.status.ToString();
  EXPECT_EQ(selected.num_steps, 2u);
  EXPECT_EQ(selected.step, 1u);

  // Bookmark a group and a user.
  Request bm;
  bm.type = RequestType::kBookmark;
  bm.session_id = "alice";
  bm.group = started.groups[0].id;
  ASSERT_TRUE(svc.Call(bm).status.ok());
  bm.group.reset();
  bm.user = 3;
  ASSERT_TRUE(svc.Call(bm).status.ok());

  // CONTEXT is non-empty after a selection; labels are denormalized.
  Request ctx;
  ctx.type = RequestType::kGetContext;
  ctx.session_id = "alice";
  ctx.top_k = 5;
  Response context = svc.Call(ctx);
  ASSERT_TRUE(context.status.ok());
  ASSERT_FALSE(context.context.empty());
  EXPECT_FALSE(context.context[0].label.empty());

  // Unlearn the strongest token.
  Request un;
  un.type = RequestType::kUnlearn;
  un.session_id = "alice";
  un.token = context.context[0].token;
  ASSERT_TRUE(svc.Call(un).status.ok());

  // Backtrack to step 0.
  Request bt;
  bt.type = RequestType::kBacktrack;
  bt.session_id = "alice";
  bt.step = 0;
  Response back = svc.Call(bt);
  ASSERT_TRUE(back.status.ok());
  EXPECT_EQ(back.num_steps, 1u);

  Response ended = svc.Call(End("alice"));
  ASSERT_TRUE(ended.status.ok());
  EXPECT_EQ(ended.memo_groups, 1u);
  EXPECT_EQ(ended.memo_users, 1u);
  EXPECT_EQ(svc.sessions().size(), 0u);
}

TEST_F(ServiceTest, GreedyWorkCountersAccountFreshScreensOnly) {
  ExplorationService svc(engine_, FastOptions());

  ASSERT_TRUE(svc.Call(Start("ana")).status.ok());
  MetricsSnapshot after_start = svc.Stats();
  // start_session serves one first screen: from the engine's memo (no
  // greedy run) or computed (one run). The shared engine's memo may hold
  // this k's screen already, from an earlier test in this process.
  EXPECT_EQ(after_start.screen_memo_hits + after_start.greedy_runs, 1u);

  Response first = svc.Call(Start("ana2"));
  ASSERT_TRUE(first.status.ok());
  Response sel = svc.Call(Select("ana2", first.groups[0].id));
  ASSERT_TRUE(sel.status.ok());
  MetricsSnapshot after_select = svc.Stats();
  // Two starts + one select_group: one greedy run per screen the memo did
  // not serve.
  EXPECT_EQ(after_select.screen_memo_hits + after_select.greedy_runs, 3u);
  EXPECT_GT(after_select.greedy_evaluations, after_start.greedy_evaluations);

  // Backtrack replays a cached screen — no new greedy run may be counted.
  Request bt;
  bt.type = RequestType::kBacktrack;
  bt.session_id = "ana2";
  bt.step = 0;
  ASSERT_TRUE(svc.Call(bt).status.ok());
  MetricsSnapshot after_back = svc.Stats();
  EXPECT_EQ(after_back.greedy_runs, after_select.greedy_runs);
  EXPECT_EQ(after_back.greedy_evaluations, after_select.greedy_evaluations);

  // The counters ride the wire through get_stats.
  Request stats;
  stats.type = RequestType::kGetStats;
  Response sresp = svc.Call(stats);
  ASSERT_TRUE(sresp.status.ok());
  ASSERT_TRUE(sresp.stats.has_value());
  EXPECT_EQ(sresp.stats->GetNumber("greedy_runs", -1),
            static_cast<double>(after_back.greedy_runs));
  EXPECT_GE(sresp.stats->GetNumber("greedy_evaluations", -1), 1);
  const json::Value* screen_memo = sresp.stats->Find("screen_memo");
  ASSERT_NE(screen_memo, nullptr) << "get_stats lacks screen_memo";
  EXPECT_EQ(screen_memo->GetNumber("hits", -1),
            static_cast<double>(after_back.screen_memo_hits));
  EXPECT_EQ(screen_memo->GetNumber("resumes", -1),
            static_cast<double>(after_back.screen_memo_resumes));
  EXPECT_EQ(screen_memo->GetNumber("screens", -1),
            static_cast<double>(after_back.screen_memo_screens));
  EXPECT_EQ(screen_memo->GetNumber("records", -1),
            static_cast<double>(after_back.screen_memo_records));
  EXPECT_EQ(screen_memo->GetNumber("refused_full", -1), 0);
  EXPECT_GE(after_back.screen_memo_screens, 1u) << "this k's first screen";
  const json::Value* entries = screen_memo->Find("entries_by_path_length");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  EXPECT_EQ(entries->AsArray().size(), core::ScreenMemo::kMaxPathLength + 1);
}

TEST_F(ServiceTest, RepeatedStartIsAFirstScreenMemoHit) {
  // Unbounded greedy and a long budget: the first start (if the memo does
  // not hold its screen yet) runs to its local optimum and is stored, so
  // the second start must be a hit that runs no greedy.
  ServiceOptions opts = FastOptions();
  opts.session_template.greedy.time_limit_ms =
      core::GreedyOptions::kUnboundedTimeLimit;
  opts.dispatcher.default_budget_ms = 10'000;
  ExplorationService svc(engine_, opts);

  Response a = svc.Call(Start("memo-a"));
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  const MetricsSnapshot before = svc.Stats();
  Response b = svc.Call(Start("memo-b"));
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  const MetricsSnapshot after = svc.Stats();

  EXPECT_EQ(after.screen_memo_hits, before.screen_memo_hits + 1);
  EXPECT_EQ(after.greedy_runs, before.greedy_runs);
  EXPECT_EQ(after.greedy_evaluations, before.greedy_evaluations);
  EXPECT_FALSE(b.greedy_deadline_hit);
  EXPECT_FALSE(b.degraded.has_value());
  ASSERT_EQ(b.groups.size(), a.groups.size());
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(b.groups[i].id, a.groups[i].id);
  }
  EXPECT_EQ(b.coverage, a.coverage);
  EXPECT_EQ(b.diversity, a.diversity);
}

TEST_F(ServiceTest, ServiceScreensMatchBareSession) {
  // The service's screens must equal a bare session's. Both runs are
  // unbounded: the request budget is long enough that the deadline clamp
  // never truncates the service's run.
  ServiceOptions opts = FastOptions();
  opts.session_template.greedy.time_limit_ms =
      core::GreedyOptions::kUnboundedTimeLimit;
  opts.dispatcher.default_budget_ms = 10'000;
  ExplorationService svc(engine_, opts);
  auto bare = engine_->CreateSession(opts.session_template);

  auto expect_same = [](const Response& resp,
                        const core::GreedySelection& serial) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_FALSE(resp.greedy_deadline_hit);
    ASSERT_EQ(resp.groups.size(), serial.groups.size());
    for (size_t i = 0; i < resp.groups.size(); ++i) {
      EXPECT_EQ(resp.groups[i].id, serial.groups[i]);
    }
    EXPECT_EQ(resp.coverage, serial.quality.coverage);
    EXPECT_EQ(resp.diversity, serial.quality.diversity);
  };

  Response a = svc.Call(Start("p"));
  expect_same(a, bare->Start());
  ASSERT_FALSE(a.groups.empty());
  const uint32_t pick = a.groups[0].id;
  expect_same(svc.Call(Select("p", pick)), bare->SelectGroup(pick));
}

TEST_F(ServiceTest, TruncatedSeedIsCountedAndAnswersDeadlineHit) {
  // A fire of the seed failpoint before every prior expires the deadline:
  // the seed stops after k priors, the select still answers k groups flagged
  // greedy_deadline_hit, and get_stats counts one seed truncation and one
  // deadline hit. A backtrack that re-serves the cut screen runs no greedy,
  // so it counts neither. The same select without the failpoint and without a
  // greedy limit counts none.
  // The budget is long, so only the failpoint cuts: a 5 ms one also cut
  // the start in a slow (Debug, TSan) build.
  ServiceOptions bounded = FastOptions();
  bounded.session_template.greedy.time_limit_ms = 10'000;
  // A key no other test uses: the cut select leaves its work record in the
  // shared engine's screen memo, which would serve later tests' selects.
  bounded.session_template.greedy.lambda = 0.6;
  bounded.dispatcher.default_budget_ms = 10'000;
  ServiceOptions unbounded = bounded;
  unbounded.session_template.greedy.time_limit_ms =
      core::GreedyOptions::kUnboundedTimeLimit;
  const size_t k = bounded.session_template.greedy.k;
  const double min_sim = bounded.session_template.greedy.min_similarity;

  auto pool_size = [&](mining::GroupId g) {
    size_t n = 0;
    for (const index::Neighbor& nb : engine_->index().Neighbors(g)) {
      n += nb.similarity >= min_sim;
    }
    return n;
  };
  auto run = [&](ExplorationService& svc, const std::string& id) {
    Response started = svc.Call(Start(id));
    EXPECT_TRUE(started.status.ok()) << started.status.ToString();
    // Click a shown group whose candidate pool leaves priors to skip.
    std::optional<uint32_t> pick;
    for (const GroupView& g : started.groups) {
      if (pool_size(g.id) > k + 1) {
        pick = g.id;
        break;
      }
    }
    EXPECT_TRUE(pick.has_value()) << "no shown group has a pool above k+1";
    if (!pick.has_value()) return std::make_pair(Response(), svc.Stats());
    const MetricsSnapshot before = svc.Stats();
    EXPECT_EQ(before.greedy_seed_truncations, 0u) << "a start truncated";
    Response selected = svc.Call(Select(id, *pick));
    return std::make_pair(std::move(selected), svc.Stats());
  };

  {
    failpoint::Policy cut;
    cut.mode = failpoint::Policy::Mode::kAlways;
    cut.code = StatusCode::kOk;
    failpoint::ScopedFailpoint fp("greedy.seed", cut);
    ExplorationService svc(engine_, bounded);
    auto [resp, stats] = run(svc, "seed-cut");
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(fp.hits(), k) << "the deadline stops the seed at k priors";
    EXPECT_TRUE(resp.greedy_deadline_hit);
    EXPECT_EQ(resp.groups.size(), k);
    EXPECT_EQ(stats.greedy_seed_truncations, 1u);
    EXPECT_EQ(stats.greedy_deadline_hits, 1u);
    EXPECT_EQ(stats.ToJson().GetNumber("greedy_seed_truncations", -1), 1);

    Request bt;
    bt.type = RequestType::kBacktrack;
    bt.session_id = "seed-cut";
    bt.step = 1;
    Response back = svc.Call(bt);
    ASSERT_TRUE(back.status.ok()) << back.status.ToString();
    EXPECT_TRUE(back.greedy_deadline_hit) << "the cut screen, re-served";
    const MetricsSnapshot after = svc.Stats();
    EXPECT_EQ(after.greedy_deadline_hits, 1u);
    EXPECT_EQ(after.greedy_seed_truncations, 1u);
  }
  ExplorationService svc(engine_, unbounded);
  auto [resp, stats] = run(svc, "seed-full");
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.greedy_deadline_hit);
  EXPECT_EQ(resp.groups.size(), k);
  EXPECT_EQ(stats.greedy_seed_truncations, 0u);
}

TEST_F(ServiceTest, CutSelectIsResumedThenServedFromTheScreenMemo) {
  // A fire of the seed failpoint expires the run's deadline: the first
  // select on a path is cut, and the engine's screen memo admits its work
  // record. The next select on the path, from another session, resumes
  // that record and converges; the one after is a hit that runs no greedy.
  // get_stats shows the resume, the hit and the path's entry.
  ServiceOptions opts = FastOptions();
  opts.session_template.greedy.lambda = 0.55;  // a key no other test uses
  opts.session_template.greedy.time_limit_ms = 10'000;
  opts.dispatcher.default_budget_ms = 10'000;
  ExplorationService svc(engine_, opts);
  const size_t k = opts.session_template.greedy.k;

  Response started = svc.Call(Start("cut"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  std::optional<uint32_t> pick;
  for (const GroupView& g : started.groups) {
    size_t pool = 0;
    for (const index::Neighbor& nb : engine_->index().Neighbors(g.id)) {
      pool += nb.similarity >= opts.session_template.greedy.min_similarity;
    }
    if (pool > k + 1) {
      pick = g.id;
      break;
    }
  }
  ASSERT_TRUE(pick.has_value()) << "no shown group has a pool above k+1";
  // The engine and its memo are shared by every test in this process.
  const uint64_t one_click_entries = svc.Stats().screen_memo_entries[1];
  {
    failpoint::Policy cut;
    cut.mode = failpoint::Policy::Mode::kAlways;
    cut.code = StatusCode::kOk;
    failpoint::ScopedFailpoint fp("greedy.seed", cut);
    Response r = svc.Call(Select("cut", *pick));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.greedy_deadline_hit);
  }
  const MetricsSnapshot cut_stats = svc.Stats();
  EXPECT_EQ(cut_stats.screen_memo_resumes, 0u);
  ASSERT_EQ(cut_stats.screen_memo_entries.size(),
            core::ScreenMemo::kMaxPathLength + 1);
  EXPECT_EQ(cut_stats.screen_memo_entries[1], one_click_entries + 1);

  ASSERT_TRUE(svc.Call(Start("resume")).status.ok());
  Response resumed = svc.Call(Select("resume", *pick));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_FALSE(resumed.greedy_deadline_hit);
  const MetricsSnapshot resume_stats = svc.Stats();
  EXPECT_EQ(resume_stats.screen_memo_resumes, 1u);
  EXPECT_EQ(resume_stats.greedy_runs, cut_stats.greedy_runs + 1);

  ASSERT_TRUE(svc.Call(Start("hit")).status.ok());
  const MetricsSnapshot before_hit = svc.Stats();
  Response hit = svc.Call(Select("hit", *pick));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_FALSE(hit.greedy_deadline_hit);
  ASSERT_EQ(hit.groups.size(), resumed.groups.size());
  for (size_t i = 0; i < hit.groups.size(); ++i) {
    EXPECT_EQ(hit.groups[i].id, resumed.groups[i].id);
  }
  EXPECT_EQ(hit.coverage, resumed.coverage);
  EXPECT_EQ(hit.diversity, resumed.diversity);
  const MetricsSnapshot after_hit = svc.Stats();
  EXPECT_EQ(after_hit.screen_memo_hits, before_hit.screen_memo_hits + 1);
  EXPECT_EQ(after_hit.greedy_runs, before_hit.greedy_runs);
  EXPECT_EQ(after_hit.screen_memo_resumes, 1u);

  Request stats;
  stats.type = RequestType::kGetStats;
  Response sresp = svc.Call(stats);
  ASSERT_TRUE(sresp.stats.has_value());
  const json::Value* screen_memo = sresp.stats->Find("screen_memo");
  ASSERT_NE(screen_memo, nullptr);
  EXPECT_EQ(screen_memo->GetNumber("resumes", -1), 1);
  const json::Value* entries = screen_memo->Find("entries_by_path_length");
  ASSERT_NE(entries, nullptr);
  ASSERT_TRUE(entries->is_array());
  EXPECT_EQ(entries->AsArray()[1].AsDouble(),
            static_cast<double>(one_click_entries + 1));
}

TEST_F(ServiceTest, ZeroBudgetIsDeadlineExceededWithoutTouchingGreedy) {
  ExplorationService svc(engine_, FastOptions());
  Request req = Start("hurried");
  req.budget_ms = 0;  // born expired
  Response resp = svc.Call(req);
  EXPECT_TRUE(resp.status.IsDeadlineExceeded()) << resp.status.ToString();
  EXPECT_TRUE(resp.groups.empty());  // greedy loop never ran
  auto s = svc.Stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.ok, 0u);
}

TEST_F(ServiceTest, NegativeBudgetAlsoExpiresImmediately) {
  ExplorationService svc(engine_, FastOptions());
  Request req = Start("hurried2");
  req.budget_ms = -10;
  EXPECT_TRUE(svc.Call(req).status.IsDeadlineExceeded());
}

TEST_F(ServiceTest, SelectOnAStartThatTimedOutIsAFailedPrecondition) {
  // The start admits its session, then waits on the lease past its budget:
  // it answers DeadlineExceeded and leaves a session with no screen.
  ExplorationService svc(engine_, FastOptions());
  Response started;
  {
    failpoint::Policy slow;
    slow.mode = failpoint::Policy::Mode::kOnce;
    slow.code = StatusCode::kOk;
    slow.sleep_ms = 40.0;
    failpoint::ScopedFailpoint fp("session_manager.acquire", slow);
    Request req = Start("late");
    req.budget_ms = 20;
    started = svc.Call(req);
    ASSERT_EQ(fp.hits(), 1u);
  }
  ASSERT_TRUE(started.status.IsDeadlineExceeded())
      << started.status.ToString();

  // A click on it is a typed error, at the normal rung and at the stale one
  // (which has no screen to replay either).
  Response clicked = svc.Call(Select("late", 0));
  EXPECT_TRUE(clicked.status.IsFailedPrecondition())
      << clicked.status.ToString();
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kStale);
  Response stale = svc.Call(Select("late", 0));
  EXPECT_TRUE(stale.status.IsFailedPrecondition()) << stale.status.ToString();
  EXPECT_FALSE(stale.degraded.has_value());
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kNormal);
  EXPECT_EQ(svc.Stats().greedy_runs, 0u);

  // The session itself is intact: it can still be ended.
  EXPECT_TRUE(svc.Call(End("late")).status.ok());
}

TEST_F(ServiceTest, UnknownSessionIsNotFound) {
  ExplorationService svc(engine_, FastOptions());
  Response resp = svc.Call(Select("ghost", 0));
  EXPECT_TRUE(resp.status.IsNotFound());
  EXPECT_TRUE(svc.Call(End("ghost")).status.IsNotFound());
  auto s = svc.Stats();
  EXPECT_EQ(s.not_found, 2u);
}

TEST_F(ServiceTest, StaleGenerationIsNotFound) {
  ExplorationService svc(engine_, FastOptions());
  Response first = svc.Call(Start("phoenix"));
  ASSERT_TRUE(first.status.ok());
  uint64_t old_gen = first.generation;
  ASSERT_TRUE(svc.Call(End("phoenix")).status.ok());
  Response second = svc.Call(Start("phoenix"));
  ASSERT_TRUE(second.status.ok());
  EXPECT_NE(second.generation, old_gen);

  Request stale = Select("phoenix", first.groups[0].id);
  stale.generation = old_gen;
  EXPECT_TRUE(svc.Call(stale).status.IsNotFound());

  Request fresh = Select("phoenix", second.groups[0].id);
  fresh.generation = second.generation;
  EXPECT_TRUE(svc.Call(fresh).status.ok());
}

TEST_F(ServiceTest, EvictedSessionIsNotFound) {
  ServiceOptions opts = FastOptions();
  opts.sessions.max_sessions = 1;
  ExplorationService svc(engine_, opts);
  Response a = svc.Call(Start("a"));
  ASSERT_TRUE(a.status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(svc.Call(Start("b")).status.ok());  // evicts idle "a"
  Response stale = svc.Call(Select("a", a.groups[0].id));
  EXPECT_TRUE(stale.status.IsNotFound());
  EXPECT_EQ(svc.Stats().evictions_lru, 1u);
}

TEST_F(ServiceTest, InvalidArgumentsAreRejectedNotFatal) {
  ExplorationService svc(engine_, FastOptions());
  ASSERT_TRUE(svc.Call(Start("val")).status.ok());

  // Out-of-range group id.
  Response bad_group = svc.Call(Select("val", 1u << 30));
  EXPECT_TRUE(bad_group.status.IsInvalidArgument());

  // Backtrack past history.
  Request bt;
  bt.type = RequestType::kBacktrack;
  bt.session_id = "val";
  bt.step = 99;
  EXPECT_FALSE(svc.Call(bt).status.ok());

  // Unknown unlearn token.
  Request un;
  un.type = RequestType::kUnlearn;
  un.session_id = "val";
  un.token = 1u << 30;
  EXPECT_TRUE(svc.Call(un).status.IsInvalidArgument());

  // Bookmark an unknown user.
  Request bm;
  bm.type = RequestType::kBookmark;
  bm.session_id = "val";
  bm.user = 1u << 30;
  EXPECT_TRUE(svc.Call(bm).status.IsInvalidArgument());

  // k = 0 and k too large on start_session.
  Request k0 = Start("val2");
  k0.k = 0;
  EXPECT_TRUE(svc.Call(k0).status.IsInvalidArgument());
  Request kbig = Start("val3");
  kbig.k = 10'000;
  EXPECT_TRUE(svc.Call(kbig).status.IsInvalidArgument());
  Request lr = Start("val4");
  lr.learning_rate = -1.0;
  EXPECT_TRUE(svc.Call(lr).status.IsInvalidArgument());

  // The session survives all of that.
  EXPECT_TRUE(svc.Call(End("val")).status.ok());
}

TEST_F(ServiceTest, PerRequestKOverridesTemplate) {
  ExplorationService svc(engine_, FastOptions());
  Request req = Start("narrow");
  req.k = 2;
  Response resp = svc.Call(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.groups.size(), 2u);
}

TEST_F(ServiceTest, HandleLineSpeaksTheWireProtocol) {
  ExplorationService svc(engine_, FastOptions());
  std::string out =
      svc.HandleLine("{\"op\":\"start_session\",\"session\":\"wire\"}");
  auto resp = Response::Decode(out);
  ASSERT_TRUE(resp.ok()) << out;
  EXPECT_TRUE(resp->status.ok());
  EXPECT_FALSE(resp->groups.empty());

  // Garbage in -> one well-formed error line out, never a throw.
  std::string err = svc.HandleLine("this is not json");
  auto parsed = json::Parse(err);
  ASSERT_TRUE(parsed.ok()) << err;
  EXPECT_EQ(parsed->GetString("status", ""), "InvalidArgument");

  std::string unknown_op = svc.HandleLine("{\"op\":\"teleport\"}");
  auto parsed2 = json::Parse(unknown_op);
  ASSERT_TRUE(parsed2.ok());
  EXPECT_EQ(parsed2->GetString("status", ""), "InvalidArgument");

  std::string stats = svc.HandleLine("{\"op\":\"get_stats\"}");
  auto parsed3 = json::Parse(stats);
  ASSERT_TRUE(parsed3.ok());
  EXPECT_NE(parsed3->Find("stats"), nullptr);
}

TEST_F(ServiceTest, GetStatsOnFreshServiceEmitsCleanZeroQuantiles) {
  ExplorationService svc(engine_, FastOptions());
  // get_stats as the very first request: every op's latency window is
  // empty. The stats JSON must parse and pin every quantile to a hard 0 —
  // no NaN/garbage division artifacts anywhere in the payload.
  std::string stats = svc.HandleLine("{\"op\":\"get_stats\"}");
  EXPECT_EQ(stats.find("nan"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("NaN"), std::string::npos) << stats;
  auto parsed = json::Parse(stats);
  ASSERT_TRUE(parsed.ok()) << stats;
  const json::Value* s = parsed->Find("stats");
  ASSERT_NE(s, nullptr);
  const json::Value* lat = s->Find("latency");
  ASSERT_NE(lat, nullptr) << stats;
  EXPECT_EQ(lat->GetNumber("mean_ms", -1), 0.0);
  EXPECT_EQ(lat->GetNumber("p50_ms", -1), 0.0);
  EXPECT_EQ(lat->GetNumber("p95_ms", -1), 0.0);
  EXPECT_EQ(lat->GetNumber("p99_ms", -1), 0.0);
  EXPECT_EQ(lat->GetNumber("max_ms", -1), 0.0);
}

TEST_F(ServiceTest, MetricsMatchScriptedWorkloadExactly) {
  ExplorationService svc(engine_, FastOptions());
  // Scripted: 2 start, 3 select (1 ok + 1 bad-group + 1 unknown-session),
  // 1 get_stats, 2 end (1 ok + 1 unknown).
  Response a = svc.Call(Start("m1"));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(svc.Call(Start("m2")).status.ok());
  ASSERT_TRUE(svc.Call(Select("m1", a.groups[0].id)).status.ok());
  ASSERT_TRUE(svc.Call(Select("m1", 1u << 30)).status.IsInvalidArgument());
  ASSERT_TRUE(svc.Call(Select("nobody", 0)).status.IsNotFound());
  Request gs;
  gs.type = RequestType::kGetStats;
  ASSERT_TRUE(svc.Call(gs).status.ok());
  ASSERT_TRUE(svc.Call(End("m1")).status.ok());
  ASSERT_TRUE(svc.Call(End("nobody")).status.IsNotFound());

  MetricsSnapshot s = svc.Stats();
  EXPECT_EQ(s.TotalRequests(), 8u);
  EXPECT_EQ(s.ok, 5u);
  EXPECT_EQ(s.not_found, 2u);
  EXPECT_EQ(s.other_errors, 1u);  // the InvalidArgument select
  EXPECT_EQ(s.deadline_exceeded, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(
      s.requests_by_type[static_cast<size_t>(RequestType::kStartSession)], 2u);
  EXPECT_EQ(
      s.requests_by_type[static_cast<size_t>(RequestType::kSelectGroup)], 3u);
  EXPECT_EQ(s.requests_by_type[static_cast<size_t>(RequestType::kGetStats)],
            1u);
  EXPECT_EQ(s.requests_by_type[static_cast<size_t>(RequestType::kEndSession)],
            2u);
  EXPECT_EQ(s.open_sessions, 1u);  // m2 still live
  EXPECT_EQ(s.latency_all.count, 8u);
}

TEST_F(ServiceTest, BackpressureShedsBeyondQueueDepth) {
  ServiceOptions opts = FastOptions();
  opts.num_workers = 1;
  opts.dispatcher.max_queue_depth = 2;
  ExplorationService svc(engine_, opts);
  ASSERT_TRUE(svc.Call(Start("bp")).status.ok());

  std::vector<std::future<Response>> futs;
  {
    // Pin the session's lease so the lone worker blocks on the first
    // request: everything submitted behind it must pile up in the queue
    // and overflow deterministically.
    auto lease = svc.sessions().Acquire("bp").ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      Request req;
      req.type = RequestType::kGetContext;
      req.session_id = "bp";
      req.budget_ms = 10'000;
      auto done = std::make_shared<std::promise<Response>>();
      futs.push_back(done->get_future());
      svc.DispatchAsync(req, [done](Response r) {
        done->set_value(std::move(r));
      });
    }
    // max_queue_depth = 2: at most 2 admitted, the rest shed immediately.
    // lease drops here; the admitted requests drain.
  }
  size_t shed = 0;
  for (auto& f : futs) {
    Response r = f.get();
    if (r.status.IsResourceExhausted()) ++shed;
  }
  EXPECT_EQ(shed, 10u);
  EXPECT_EQ(svc.Stats().shed, shed);
}

TEST_F(ServiceTest, ShutdownShedsNewWorkAndCompletesFutures) {
  ExplorationService svc(engine_, FastOptions());
  ASSERT_TRUE(svc.Call(Start("down")).status.ok());
  svc.Shutdown();
  Response resp = svc.Call(Start("late"));
  EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status.ToString();
}

TEST_F(ServiceTest, GetTraceDisabledByDefault) {
  ExplorationService svc(engine_, FastOptions());
  Request req;
  req.type = RequestType::kGetTrace;
  Response resp = svc.Call(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kNotSupported)
      << resp.status.ToString();
  EXPECT_FALSE(resp.traces.has_value());
}

TEST_F(ServiceTest, TraceSpanTreeEndToEnd) {
  ServiceOptions opts = FastOptions();
  opts.trace.enabled = true;
  opts.trace.capacity = 16;
  // A key no other test uses, so the start is never a memo hit: it runs
  // greedy, and the failpoint below lands in it.
  opts.session_template.greedy.lambda = 0.65;
  ExplorationService svc(engine_, opts);
  // On this small world every request is µs-scale, so one preemption
  // between stages could make the slowest request mostly uninstrumented.
  // One sleep inside the first greedy seed makes the slowest request's time
  // the seed's (the fire also cuts that run: a deadline-hit screen).
  failpoint::Policy slow_seed;
  slow_seed.mode = failpoint::Policy::Mode::kOnce;
  slow_seed.code = StatusCode::kOk;
  slow_seed.sleep_ms = 25.0;
  failpoint::ScopedFailpoint fp("greedy.seed", slow_seed);

  Response started = svc.Call(Start("traced"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  ASSERT_TRUE(svc.Call(Select("traced", started.groups[0].id)).status.ok());

  Request gt;
  gt.type = RequestType::kGetTrace;
  gt.n = 10;
  Response resp = svc.Call(gt);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ASSERT_TRUE(resp.traces.has_value());
  ASSERT_TRUE(resp.traces->is_array());
  // get_trace snapshots the log *before* its own trace is recorded: exactly
  // the start_session and select_group traces, newest first.
  const json::Array& arr = resp.traces->AsArray();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].GetString("op", ""), "select_group");
  EXPECT_EQ(arr[1].GetString("op", ""), "start_session");

  const std::set<std::string> taxonomy = {
      "request", "queue",  "admit",   "session",  "screen_memo",
      "learn",   "rank",   "greedy",  "seed",     "weights",
      "affinity", "prior", "setup",   "pass",     "serialize"};
  for (const json::Value& rec : arr) {
    EXPECT_EQ(rec.GetString("session", ""), "traced");
    EXPECT_EQ(rec.GetString("status", ""), "OK");
    double total_ms = rec.GetNumber("total_ms", -1);
    EXPECT_GT(total_ms, 0.0);
    EXPECT_GE(rec.GetNumber("queue_ms", -1), 0.0);
    EXPECT_DOUBLE_EQ(rec.GetNumber("budget_ms", -1), 100.0);

    const json::Value* spans = rec.Find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->is_array());
    const json::Array& sp = spans->AsArray();
    ASSERT_GE(sp.size(), 2u);
    EXPECT_EQ(sp[0].GetString("name", ""), "request");
    EXPECT_EQ(sp[0].GetNumber("parent", 0), -1.0);
    double root_us = sp[0].GetNumber("duration_us", -1);
    EXPECT_GE(root_us, 0.0);

    std::set<std::string> seen;
    double root_children_us = 0;
    double screen_memo_count = -1;
    double seed_index = -1;
    std::map<std::string, double> seed_child_counts;
    for (size_t i = 0; i < sp.size(); ++i) {
      std::string name = sp[i].GetString("name", "");
      EXPECT_TRUE(taxonomy.count(name)) << "unknown span '" << name << "'";
      if (name == "screen_memo") {
        EXPECT_FALSE(seen.count(name)) << "two screen_memo spans";
        screen_memo_count = sp[i].GetNumber("count", 0);
      }
      if (name == "seed") seed_index = static_cast<double>(i);
      if (name == "weights" || name == "affinity" || name == "prior" ||
          name == "setup") {
        EXPECT_EQ(sp[i].GetNumber("parent", -99), seed_index)
            << name << " is not a child of seed";
        seed_child_counts[name] = sp[i].GetNumber("count", 0);
      }
      seen.insert(name);
      double parent = sp[i].GetNumber("parent", -99);
      double dur = sp[i].GetNumber("duration_us", -1);
      double start = sp[i].GetNumber("start_us", -1);
      EXPECT_GE(dur, 0.0) << name << " left open";
      EXPECT_GE(start, 0.0);
      if (i > 0) {
        // A span's parent always precedes it (flat, creation-ordered arena).
        EXPECT_GE(parent, 0.0) << name;
        EXPECT_LT(parent, static_cast<double>(i)) << name;
        if (parent == 0.0) root_children_us += dur;
      }
    }
    // The request's direct stages are sequential and disjoint: their sum
    // cannot exceed the root's wall time (small µs slack for clock reads
    // between a child's close and its parent's).
    EXPECT_LE(root_children_us, root_us + 50.0);
    EXPECT_TRUE(seen.count("queue"));
    EXPECT_TRUE(seen.count("session"));
    EXPECT_TRUE(seen.count("serialize"));
    // Starts and selects alike make one memo lookup: a hit (count 1) runs
    // no greedy; a miss (count 0) runs one. The shared engine's memo may
    // already hold either screen, so both are correct here.
    ASSERT_TRUE(seen.count("screen_memo"));
    const bool hit = screen_memo_count == 1.0;
    EXPECT_TRUE(hit || screen_memo_count == 0.0) << screen_memo_count;
    EXPECT_EQ(seen.count("rank"), hit ? 0u : 1u);
    EXPECT_EQ(seen.count("greedy"), hit ? 0u : 1u);
    if (rec.GetString("op", "") == "start_session") {
      EXPECT_TRUE(seen.count("admit"));
    } else {
      // A select learns its new HISTORY step in one merge. A run's seed
      // has all four phases: `affinity` counts the pool, `prior` the
      // priors computed (all of them unless the deadline stopped the seed).
      EXPECT_TRUE(seen.count("learn"));
      if (!hit) {
        ASSERT_EQ(seed_child_counts.size(), 4u);
        EXPECT_GE(seed_child_counts["prior"], 1.0);
        EXPECT_LE(seed_child_counts["prior"], seed_child_counts["affinity"]);
      }
    }
  }

  // The slowest-N view answers too, and its top record attributes the bulk
  // of its wall time to instrumented stages.
  Request slow;
  slow.type = RequestType::kGetTrace;
  slow.n = 1;
  slow.slowest = true;
  Response slowest = svc.Call(slow);
  ASSERT_TRUE(slowest.status.ok());
  ASSERT_TRUE(slowest.traces.has_value());
  ASSERT_GE(slowest.traces->AsArray().size(), 1u);
  const json::Value& top = slowest.traces->AsArray()[0];
  const json::Array& top_spans = top.Find("spans")->AsArray();
  double top_root = top_spans[0].GetNumber("duration_us", 0);
  double covered = 0;
  for (size_t i = 1; i < top_spans.size(); ++i) {
    if (top_spans[i].GetNumber("parent", -1) == 0.0) {
      covered += top_spans[i].GetNumber("duration_us", 0);
    }
  }
  ASSERT_GT(top_root, 0.0);
  // The slowest request holds the 25 ms seed sleep; uninstrumented gaps are
  // µs-scale dispatch glue.
  ASSERT_EQ(fp.fires(), 1u) << "the seed sleep never ran";
  EXPECT_GE(top_root, 25'000.0);
  EXPECT_GE(covered / top_root, 0.5)
      << "stages cover only " << covered << "/" << top_root << " us";
}

TEST_F(ServiceTest, GetStatsIncludesStageQuantiles) {
  ServiceOptions opts = FastOptions();
  opts.trace.enabled = true;
  ExplorationService svc(engine_, opts);
  Response started = svc.Call(Start("staged"));
  ASSERT_TRUE(started.status.ok());
  // The start may be a screen memo hit; the select runs greedy.
  ASSERT_TRUE(svc.Call(Select("staged", started.groups[0].id)).status.ok());

  Request gs;
  gs.type = RequestType::kGetStats;
  Response resp = svc.Call(gs);
  ASSERT_TRUE(resp.status.ok());
  ASSERT_TRUE(resp.stats.has_value());
  const json::Value* stages = resp.stats->Find("stages");
  ASSERT_NE(stages, nullptr) << "get_stats lacks the stages object";
  ASSERT_TRUE(stages->is_object());
  const json::Value* queue = stages->Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->GetNumber("count", -1), 1.0);
  const json::Value* greedy = stages->Find("greedy");
  ASSERT_NE(greedy, nullptr);
  EXPECT_GE(greedy->GetNumber("count", -1), 1.0);
  EXPECT_GE(greedy->GetNumber("p99_ms", -1), 0.0);

  // Tracing off → no greedy stage samples, but queue is always measured.
  ExplorationService untraced(engine_, FastOptions());
  ASSERT_TRUE(untraced.Call(Start("plain")).status.ok());
  MetricsSnapshot snap = untraced.Stats();
  EXPECT_GE(snap.stage_latency[static_cast<size_t>(Stage::kQueue)].count, 1u);
  EXPECT_EQ(snap.stage_latency[static_cast<size_t>(Stage::kGreedy)].count, 0u);
}

TEST_F(ServiceTest, TraceRingRetainsOnlyCapacity) {
  ServiceOptions opts = FastOptions();
  opts.trace.enabled = true;
  opts.trace.capacity = 4;
  ExplorationService svc(engine_, opts);
  ASSERT_TRUE(svc.Call(Start("ring")).status.ok());
  for (int i = 0; i < 8; ++i) {
    Request ctx;
    ctx.type = RequestType::kGetContext;
    ctx.session_id = "ring";
    ASSERT_TRUE(svc.Call(ctx).status.ok());
  }
  Request gt;
  gt.type = RequestType::kGetTrace;
  gt.n = 100;
  Response resp = svc.Call(gt);
  ASSERT_TRUE(resp.status.ok());
  ASSERT_TRUE(resp.traces.has_value());
  EXPECT_EQ(resp.traces->AsArray().size(), 4u);  // ring capacity
  // 1 start + 8 get_context + the get_trace request itself (its own trace
  // is recorded after its handler snapshots the ring).
  EXPECT_EQ(svc.trace_log().offered(), 10u);
}

// Acceptance scenario: 16 threads x 100 requests over 8 shared sessions,
// race-free, every future answered, metrics add up.
TEST_F(ServiceTest, ConcurrentExplorersSixteenThreads) {
  ServiceOptions opts = FastOptions();
  opts.num_workers = 8;
  opts.dispatcher.max_queue_depth = 100'000;  // no shedding in this test
  opts.dispatcher.default_budget_ms = 60'000; // no deadline flakes either
  ExplorationService svc(engine_, opts);

  constexpr int kThreads = 16;
  constexpr int kRequestsPerThread = 100;
  constexpr int kSessions = 8;

  std::vector<uint32_t> first_groups(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Response started = svc.Call(Start(StrCat("shared", s)));
    ASSERT_TRUE(started.status.ok()) << started.status.ToString();
    first_groups[s] = started.groups[0].id;
  }

  std::atomic<uint64_t> ok{0}, failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        int s = (t * kRequestsPerThread + i) % kSessions;
        std::string id = StrCat("shared", s);
        Request req;
        switch (i % 4) {
          case 0:
            req = Select(id, first_groups[s]);
            break;
          case 1:
            req.type = RequestType::kGetContext;
            req.session_id = id;
            break;
          case 2:
            req.type = RequestType::kBookmark;
            req.session_id = id;
            req.user = static_cast<uint32_t>(i % 50);
            break;
          default:
            req.type = RequestType::kBacktrack;
            req.session_id = id;
            req.step = 0;
            break;
        }
        Response resp = svc.Call(req);
        if (resp.status.ok()) {
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok.load() + failed.load(), uint64_t{kThreads} * kRequestsPerThread);
  EXPECT_EQ(failed.load(), 0u) << "no request may fail in this workload";

  MetricsSnapshot s = svc.Stats();
  // 8 starts + the 1600 threaded requests, all completed.
  EXPECT_EQ(s.TotalRequests(), uint64_t{kThreads} * kRequestsPerThread + 8);
  EXPECT_EQ(s.ok, uint64_t{kThreads} * kRequestsPerThread + 8);
  EXPECT_EQ(s.open_sessions, uint64_t{kSessions});

  // Sessions are still coherent afterwards.
  for (int i = 0; i < kSessions; ++i) {
    Response ended = svc.Call(End(StrCat("shared", i)));
    EXPECT_TRUE(ended.status.ok());
    EXPECT_GE(ended.num_steps, 1u);
  }
  EXPECT_EQ(svc.sessions().size(), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot cold start: restore the engine with FromSnapshot, then construct
// the service over it (DESIGN.md §11.4).
// ---------------------------------------------------------------------------

/// The same dataset the shared engine_ was preprocessed from (the generator
/// is deterministic), so engine_'s snapshot restores an engine over it.
data::Dataset FreshDataset() {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 500;
  cfg.num_books = 600;
  cfg.num_ratings = 3000;
  return data::BookCrossingGenerator::Generate(cfg);
}

std::string WriteServiceSnapshot(const char* name) {
  std::string path = ::testing::TempDir() + name;
  core::SnapshotSaveOptions save;
  save.sync = false;
  EXPECT_TRUE(core::SaveSnapshot(ServiceTest::SharedEngine()->groups(),
                                 ServiceTest::SharedEngine()->index(), path,
                                 save)
                  .ok());
  return path;
}

TEST_F(ServiceTest, SnapshotRestoredEngineServesSessions) {
  const std::string path = WriteServiceSnapshot("svc_restored.snap");
  auto loaded = core::VexusEngine::FromSnapshot(FreshDataset(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::VexusEngine restored = std::move(loaded).ValueOrDie();

  // Unbounded greedy on both sides, so the deadline never truncates a run
  // and the screens are a pure function of the group store.
  ServiceOptions opts = FastOptions();
  opts.session_template.greedy.time_limit_ms =
      core::GreedyOptions::kUnboundedTimeLimit;
  opts.dispatcher.default_budget_ms = 10'000;
  ExplorationService svc(&restored, opts);
  ExplorationService reference(SharedEngine(), opts);

  auto expect_same = [](const Response& got, const Response& want) {
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_TRUE(want.status.ok()) << want.status.ToString();
    EXPECT_FALSE(got.greedy_deadline_hit);
    ASSERT_EQ(got.groups.size(), want.groups.size());
    for (size_t i = 0; i < got.groups.size(); ++i) {
      EXPECT_EQ(got.groups[i].id, want.groups[i].id);
    }
    EXPECT_EQ(got.coverage, want.coverage);
    EXPECT_EQ(got.diversity, want.diversity);
  };

  Response started = svc.Call(Start("thawed"));
  expect_same(started, reference.Call(Start("thawed")));
  ASSERT_FALSE(started.groups.empty());
  const uint32_t pick = started.groups[0].id;
  expect_same(svc.Call(Select("thawed", pick)),
              reference.Call(Select("thawed", pick)));
  Response ended = svc.Call(End("thawed"));
  ASSERT_TRUE(ended.status.ok()) << ended.status.ToString();
  EXPECT_EQ(ended.num_steps, 2u);
}

// ---------------------------------------------------------------------------
// Health op and the overload degradation ladder (DESIGN.md §12).
// ---------------------------------------------------------------------------

Request Health() {
  Request req;
  req.type = RequestType::kHealth;
  return req;
}

TEST_F(ServiceTest, HealthReportsBothShapes) {
  // Engine service over the wire, like a probe would.
  ExplorationService svc(SharedEngine(), FastOptions());
  auto resp = Response::Decode(svc.HandleLine("{\"op\":\"health\"}"));
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
  ASSERT_TRUE(resp->health.has_value());
  EXPECT_TRUE(resp->health->GetBool("alive", false));
  EXPECT_TRUE(resp->health->GetBool("ready", false));
  EXPECT_EQ(resp->health->GetString("state", ""), "serving");
  EXPECT_EQ(resp->health->GetNumber("overload_rung", -1), 0.0);
  EXPECT_EQ(resp->health->GetString("overload_rung_name", ""), "normal");

  // Shard backend: ready from construction too, and it says which shape
  // it is. Session ops still fail — it has no engine.
  const std::string path = WriteServiceSnapshot("svc_health.snap");
  auto shard = core::LoadSnapshotShard(path, 0);
  std::remove(path.c_str());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  ExplorationService backend(std::move(shard).ValueOrDie(), /*generation=*/7,
                             FastOptions());
  Response br = backend.Call(Health());
  ASSERT_TRUE(br.status.ok()) << br.status.ToString();
  ASSERT_TRUE(br.health.has_value());
  EXPECT_TRUE(br.health->GetBool("alive", false));
  EXPECT_TRUE(br.health->GetBool("ready", false));
  EXPECT_EQ(br.health->GetString("state", ""), "shard_backend");
  EXPECT_EQ(br.health->GetNumber("generation", -1), 7.0);
  Response refused = backend.Call(Start("no_engine"));
  EXPECT_TRUE(refused.status.IsFailedPrecondition())
      << refused.status.ToString();
}

TEST_F(ServiceTest, HealthBypassesTheQueueEvenAtShedRung) {
  ExplorationService svc(SharedEngine(), FastOptions());
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kShed);
  // The probe is answered inline: the callback has fired before
  // DispatchAsync returns, without a pool worker or the queue.
  std::optional<Response> answered;
  svc.DispatchAsync(Health(),
                    [&answered](Response r) { answered = std::move(r); });
  ASSERT_TRUE(answered.has_value()) << "health must be answered inline";
  const Response& resp = *answered;
  ASSERT_TRUE(resp.status.ok())
      << "health must never be shed by the ladder it reports: "
      << resp.status.ToString();
  ASSERT_TRUE(resp.health.has_value());
  EXPECT_EQ(resp.health->GetNumber("overload_rung", -1), 3.0);
  EXPECT_EQ(resp.health->GetString("overload_rung_name", ""), "shed");
}

TEST_F(ServiceTest, LadderShrinkEffortDegradesOnlyTheRequest) {
  ExplorationService svc(SharedEngine(), FastOptions());
  Response started = svc.Call(Start("laddered"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  ASSERT_FALSE(started.groups.empty());
  EXPECT_FALSE(started.degraded.has_value());

  // Rung 1: same op succeeds on a halved budget, flagged degraded:"effort"
  // only if that budget cut the screen.
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kShrinkEffort);
  Response effort = svc.Call(Select("laddered", started.groups[0].id));
  ASSERT_TRUE(effort.status.ok()) << effort.status.ToString();
  EXPECT_EQ(effort.degraded.has_value(), effort.greedy_deadline_hit);
  EXPECT_EQ(effort.degraded.value_or("effort"), "effort");

  // Back to normal: no flag, whatever the session's own budget did.
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kNormal);
  Response healed = svc.Call(Select("laddered", effort.groups[0].id));
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_FALSE(healed.degraded.has_value());

  MetricsSnapshot snap = svc.Stats();
  EXPECT_EQ(snap.degraded_effort, effort.greedy_deadline_hit ? 1u : 0u);
  EXPECT_EQ(snap.degraded_k, 0u);
  EXPECT_EQ(snap.DegradedTotal(), snap.degraded_effort);
}

TEST_F(ServiceTest, ShrinkEffortStartIsServedTheStoredFirstScreen) {
  ExplorationService svc(engine_, FastOptions());
  Response normal = svc.Call(Start("normal_start"));
  ASSERT_TRUE(normal.status.ok()) << normal.status.ToString();
  ASSERT_FALSE(normal.greedy_deadline_hit) << "a cut start is not stored";
  const uint64_t hits = svc.Stats().screen_memo_hits;
  const size_t entries = engine_->screens().size();

  // Rung 1 shrinks the time limit only: the first screen's key, which holds
  // the candidate cap, is the normal start's.
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kShrinkEffort);
  Response effort = svc.Call(Start("effort_start"));
  ASSERT_TRUE(effort.status.ok()) << effort.status.ToString();
  EXPECT_FALSE(effort.degraded.has_value()) << "a hit is the rung-0 screen";
  EXPECT_EQ(svc.Stats().degraded_effort, 0u);
  EXPECT_EQ(svc.Stats().screen_memo_hits, hits + 1) << "not memoized";
  EXPECT_EQ(engine_->screens().size(), entries) << "a second first screen";
  ASSERT_EQ(effort.groups.size(), normal.groups.size());
  for (size_t i = 0; i < effort.groups.size(); ++i) {
    EXPECT_EQ(effort.groups[i].id, normal.groups[i].id);
  }
}

TEST_F(ServiceTest, EffortFlagsOnlyACutScreenAndRungsShareThePathEntry) {
  // The flag describes the screen, not the rung: at rung 1 a converged run
  // or a memo hit is the rung-0 screen and carries no flag, and a run the
  // halved budget cut answers degraded:"effort". No rung keys a path apart,
  // so a path visited at rungs 0, 1 and 2 holds one memo entry.
  ServiceOptions opts = FastOptions();
  opts.session_template.greedy.lambda = 0.45;  // a key no other test uses
  opts.session_template.greedy.time_limit_ms = 10'000;
  opts.dispatcher.default_budget_ms = 10'000;
  ExplorationService svc(engine_, opts);
  OverloadController& overload = svc.dispatcher().overload();
  const size_t k = opts.session_template.greedy.k;
  failpoint::Policy cut;
  cut.mode = failpoint::Policy::Mode::kAlways;
  cut.code = StatusCode::kOk;

  Response started = svc.Call(Start("s0"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  // Two shown groups whose candidate pools leave a pass to cut.
  std::vector<uint32_t> picks;
  for (const GroupView& g : started.groups) {
    size_t pool = 0;
    for (const index::Neighbor& nb : engine_->index().Neighbors(g.id)) {
      pool += nb.similarity >= opts.session_template.greedy.min_similarity;
    }
    if (pool > k + 1) picks.push_back(g.id);
  }
  ASSERT_GE(picks.size(), 2u) << "fewer than two shown pools above k+1";
  for (const char* id : {"s1", "s2", "s3", "s4"}) {
    ASSERT_TRUE(svc.Call(Start(id)).status.ok());
  }
  const uint64_t one_click_entries = svc.Stats().screen_memo_entries[1];
  const size_t entries = engine_->screens().size();

  // Rung 0, cut: no flag, and the path's work record is stored.
  {
    failpoint::ScopedFailpoint fp("greedy.pass", cut);
    Response r = svc.Call(Select("s0", picks[0]));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.greedy_deadline_hit);
    EXPECT_FALSE(r.degraded.has_value());
  }
  EXPECT_EQ(engine_->screens().size(), entries + 1);

  // Rung 1: the run resumes the record and converges, with no flag; the
  // next visit is a hit with no flag, the same screen, and no new entry.
  overload.ForceRungForTesting(OverloadRung::kShrinkEffort);
  Response resumed = svc.Call(Select("s1", picks[0]));
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_FALSE(resumed.greedy_deadline_hit);
  EXPECT_FALSE(resumed.degraded.has_value());
  const uint64_t hits = svc.Stats().screen_memo_hits;
  Response hit = svc.Call(Select("s2", picks[0]));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_EQ(svc.Stats().screen_memo_hits, hits + 1) << "not memoized";
  EXPECT_FALSE(hit.degraded.has_value()) << "a hit is the rung-0 screen";
  ASSERT_EQ(hit.groups.size(), resumed.groups.size());
  for (size_t i = 0; i < hit.groups.size(); ++i) {
    EXPECT_EQ(hit.groups[i].id, resumed.groups[i].id);
  }
  EXPECT_EQ(hit.coverage, resumed.coverage);
  EXPECT_EQ(hit.diversity, resumed.diversity);
  EXPECT_EQ(engine_->screens().size(), entries + 1);
  EXPECT_EQ(svc.Stats().degraded_effort, 0u);

  // Rung 2 replays the session's cached screen and runs nothing.
  overload.ForceRungForTesting(OverloadRung::kStale);
  Response stale = svc.Call(Select("s3", picks[0]));
  ASSERT_TRUE(stale.status.ok()) << stale.status.ToString();
  ASSERT_TRUE(stale.degraded.has_value());
  EXPECT_EQ(*stale.degraded, "stale");
  EXPECT_EQ(engine_->screens().size(), entries + 1);

  // Rung 1, cut: the screen answers "effort" and counts once.
  overload.ForceRungForTesting(OverloadRung::kShrinkEffort);
  {
    failpoint::ScopedFailpoint fp("greedy.pass", cut);
    Response r = svc.Call(Select("s4", picks[1]));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.greedy_deadline_hit);
    ASSERT_TRUE(r.degraded.has_value());
    EXPECT_EQ(*r.degraded, "effort");
  }
  overload.ForceRungForTesting(OverloadRung::kNormal);
  const MetricsSnapshot snap = svc.Stats();
  EXPECT_EQ(snap.degraded_effort, 1u);
  EXPECT_EQ(snap.degraded_stale, 1u);
  EXPECT_EQ(snap.DegradedTotal(), 2u);
  // One entry per path: the path visited at every rung, and the cut one.
  EXPECT_EQ(snap.screen_memo_entries[1], one_click_entries + 2);
}

TEST_F(ServiceTest, LadderStaleRungReplaysTheCachedScreen) {
  ExplorationService svc(SharedEngine(), FastOptions());
  Response started = svc.Call(Start("stale_path"));
  ASSERT_TRUE(started.status.ok()) << started.status.ToString();
  ASSERT_FALSE(started.groups.empty());

  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kStale);
  Response stale = svc.Call(Select("stale_path", started.groups[0].id));
  ASSERT_TRUE(stale.status.ok()) << stale.status.ToString();
  ASSERT_TRUE(stale.degraded.has_value());
  EXPECT_EQ(*stale.degraded, "stale");
  // No greedy run, no learning step: the cached screen is replayed verbatim
  // and the session did not advance.
  EXPECT_EQ(stale.num_steps, started.num_steps);
  ASSERT_EQ(stale.groups.size(), started.groups.size());
  for (size_t i = 0; i < stale.groups.size(); ++i) {
    EXPECT_EQ(stale.groups[i].id, started.groups[i].id);
  }
  EXPECT_EQ(svc.Stats().degraded_stale, 1u);

  // Recovery: once the ladder steps down, selection runs for real again.
  svc.dispatcher().overload().ForceRungForTesting(OverloadRung::kNormal);
  Response real = svc.Call(Select("stale_path", started.groups[0].id));
  ASSERT_TRUE(real.status.ok()) << real.status.ToString();
  EXPECT_FALSE(real.degraded.has_value());
  EXPECT_EQ(real.num_steps, started.num_steps + 1);
}

}  // namespace
}  // namespace vexus::server
