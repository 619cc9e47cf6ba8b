#include "core/screen_memo.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/partial_eval.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Group ids, coverage and diversity, bit for bit.
void ExpectSameScreen(const GreedySelection& got, const GreedySelection& want,
                      const std::string& where) {
  EXPECT_EQ(got.groups, want.groups) << where;
  EXPECT_TRUE(SameBits(got.quality.coverage, want.quality.coverage))
      << where << ": coverage " << got.quality.coverage << " vs "
      << want.quality.coverage;
  EXPECT_TRUE(SameBits(got.quality.diversity, want.quality.diversity))
      << where << ": diversity " << got.quality.diversity << " vs "
      << want.quality.diversity;
}

/// Scores every trial over the whole store, as an all-healthy fleet would,
/// but reports that only `covered_fraction` of the universe answered.
class PartialScatterer : public RemoteTrialScatterer {
 public:
  PartialScatterer(const mining::GroupStore* store, double covered_fraction)
      : store_(store), covered_fraction_(covered_fraction) {}

  Outcome Scatter(std::optional<uint32_t> anchor,
                  const std::vector<uint32_t>& selection,
                  const std::vector<uint32_t>& trials,
                  const Deadline& /*deadline*/) override {
    PartialEvalInput in;
    in.anchor = anchor;
    in.selection = selection;
    in.trials = trials;
    Outcome out;
    out.shard_ok = {1};
    out.partials.push_back(EvalCoveragePartials(*store_, in).ValueOrDie());
    out.covered_fraction = covered_fraction_;
    return out;
  }

 private:
  const mining::GroupStore* store_;
  double covered_fraction_;
};

class FirstScreenMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 600;
    cfg.num_books = 800;
    cfg.num_ratings = 4000;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = 0.03;
    engine_ = new VexusEngine(std::move(
        VexusEngine::Preprocess(data::BookCrossingGenerator::Generate(cfg),
                                opt, {})
            .ValueOrDie()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  /// A session over the shared engine's structures but with its own memo,
  /// so a test sees exactly the entries it stored.
  static std::unique_ptr<ExplorationSession> SessionWith(
      ScreenMemo* memo, const GreedyOptions& greedy) {
    SessionOptions options;
    options.greedy = greedy;
    return std::make_unique<ExplorationSession>(
        &engine_->dataset(), &engine_->groups(), &engine_->index(),
        &engine_->tokens(), memo, options);
  }

  static GreedyOptions Unbounded(size_t k) {
    GreedyOptions greedy;
    greedy.k = k;
    greedy.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
    return greedy;
  }

  /// The first screen's key for `greedy`.
  static ScreenMemo::Key FirstKey(const GreedyOptions& greedy) {
    return ScreenMemo::KeyOf(greedy, SessionOptions().learning_rate, {});
  }

  static GreedySelection ReferenceInitial(const GreedyOptions& greedy) {
    GreedyOptions unbounded = greedy;
    unbounded.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
    unbounded.trace = nullptr;
    return GreedySelector(&engine_->groups(), &engine_->index())
        .SelectInitial(FeedbackVector(&engine_->tokens()), unbounded);
  }

  static VexusEngine* engine_;
};

VexusEngine* FirstScreenMemoTest::engine_ = nullptr;

TEST_F(FirstScreenMemoTest, MemoizedScreenEqualsUnboundedSelectInitial) {
  ASSERT_GT(engine_->groups().size(), 128u) << "pool must exceed both caps";
  ScreenMemo memo;
  for (size_t cap : {size_t{512}, size_t{128}}) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{7}, size_t{64}}) {
      const std::string where =
          "k=" + std::to_string(k) + " cap=" + std::to_string(cap);
      GreedyOptions greedy = Unbounded(k);
      greedy.initial_candidate_cap = cap;
      const GreedySelection reference = ReferenceInitial(greedy);
      ASSERT_EQ(reference.groups.size(), k) << where;

      auto session = SessionWith(&memo, greedy);
      const GreedySelection computed = session->Start();
      EXPECT_FALSE(computed.memoized) << where;
      ExpectSameScreen(computed, reference, where + " (miss)");

      const GreedySelection& memoized = session->Start();
      EXPECT_TRUE(memoized.memoized) << where;
      ExpectSameScreen(memoized, reference, where + " (hit)");
    }
  }
  EXPECT_EQ(memo.size(), 8u);
}

TEST_F(FirstScreenMemoTest, HitCarriesNoGreedyWork) {
  ScreenMemo memo;
  auto session = SessionWith(&memo, Unbounded(5));
  const GreedySelection miss = session->Start();
  EXPECT_FALSE(miss.memoized);
  EXPECT_GT(miss.evaluations, 0u);

  const GreedySelection& hit = session->Start();
  EXPECT_TRUE(hit.memoized);
  EXPECT_EQ(hit.passes, 0u);
  EXPECT_EQ(hit.swaps, 0u);
  EXPECT_EQ(hit.evaluations, 0u);
  EXPECT_TRUE(hit.pass_millis.empty());
  EXPECT_FALSE(hit.deadline_hit);
  EXPECT_EQ(hit.covered_fraction, 1.0);
  EXPECT_GE(hit.elapsed_ms, 0.0);
  EXPECT_EQ(hit.candidates, miss.candidates);
}

TEST_F(FirstScreenMemoTest, KeyIgnoresExecutionOnlyOptions) {
  ScreenMemo memo;
  GreedyOptions stored = Unbounded(5);
  ASSERT_TRUE(memo.Store(FirstKey(stored), ReferenceInitial(stored), {}));

  // Budget, scatterer and trace change how a run executes, not
  // what a complete run returns.
  GreedyOptions same = stored;
  same.time_limit_ms = 0;
  Trace trace("request");
  TraceSpan root = trace.root();
  same.trace = &root;
  PartialScatterer scatterer(&engine_->groups(), 1.0);
  same.remote_scatter = &scatterer;
  // Unused without an anchor, as is the learning rate.
  same.min_similarity = 0.5;
  same.refinement_quota = 0;
  EXPECT_TRUE(memo.Find(FirstKey(same)).screen.has_value());
  EXPECT_TRUE(memo.Find(ScreenMemo::KeyOf(same, 0.9, {})).screen.has_value());

  // Everything that decides the screen is part of the key.
  GreedyOptions other = stored;
  other.k = 6;
  EXPECT_FALSE(memo.Find(FirstKey(other)).screen.has_value());
  other = stored;
  other.lambda = 0.25;
  EXPECT_FALSE(memo.Find(FirstKey(other)).screen.has_value());
  other = stored;
  other.feedback_weight = 0.1;
  EXPECT_FALSE(memo.Find(FirstKey(other)).screen.has_value());
  other = stored;
  other.initial_candidate_cap = 128;
  EXPECT_FALSE(memo.Find(FirstKey(other)).screen.has_value());
}

TEST_F(FirstScreenMemoTest, DeadlineHitStartIsNeverStored) {
  ScreenMemo memo;
  GreedyOptions greedy = Unbounded(5);
  greedy.time_limit_ms = 0;  // expires before the first pass
  auto session = SessionWith(&memo, greedy);
  const GreedySelection& first = session->Start();
  ASSERT_TRUE(first.deadline_hit);
  EXPECT_FALSE(first.memoized);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(session->Start().memoized);
  EXPECT_EQ(memo.size(), 0u);

  // The same key fills once a start completes, and the truncated budget is
  // then served the complete screen.
  auto complete = SessionWith(&memo, Unbounded(5));
  complete->Start();
  EXPECT_EQ(memo.size(), 1u);
  const GreedySelection& hit = session->Start();
  EXPECT_TRUE(hit.memoized);
  EXPECT_FALSE(hit.deadline_hit);
  ExpectSameScreen(hit, ReferenceInitial(greedy), "after fill");
}

TEST_F(FirstScreenMemoTest, PartialFleetStartIsNeverStored) {
  ScreenMemo memo;
  GreedyOptions greedy = Unbounded(5);
  PartialScatterer partial(&engine_->groups(), 0.5);
  greedy.remote_scatter = &partial;
  auto session = SessionWith(&memo, greedy);
  const GreedySelection& first = session->Start();
  ASSERT_FALSE(first.deadline_hit);
  ASSERT_LT(first.covered_fraction, 1.0);
  EXPECT_EQ(memo.size(), 0u);

  // An all-healthy fold is stored, and equals the local run.
  PartialScatterer healthy(&engine_->groups(), 1.0);
  greedy.remote_scatter = &healthy;
  auto fleet = SessionWith(&memo, greedy);
  const GreedySelection computed = fleet->Start();
  EXPECT_EQ(memo.size(), 1u);
  ExpectSameScreen(computed, ReferenceInitial(greedy), "healthy fleet");
}

TEST_F(FirstScreenMemoTest, StoreRejectsIncompleteRunsAndStopsWhenFull) {
  ScreenMemo memo;
  GreedySelection truncated;
  truncated.groups = {1, 2};
  truncated.deadline_hit = true;
  EXPECT_FALSE(memo.Store(FirstKey(Unbounded(2)), truncated, {}));
  GreedySelection partial;
  partial.groups = {1, 2};
  partial.covered_fraction = 0.5;
  EXPECT_FALSE(memo.Store(FirstKey(Unbounded(2)), partial, {}));
  EXPECT_EQ(memo.size(), 0u);

  GreedySelection complete;
  complete.groups = {1, 2};
  for (size_t k = 1; k <= ScreenMemo::kMaxEntries; ++k) {
    EXPECT_TRUE(memo.Store(FirstKey(Unbounded(k)), complete, {})) << k;
  }
  EXPECT_FALSE(memo.Store(FirstKey(Unbounded(1)), complete, {}))
      << "first store wins";
  EXPECT_FALSE(memo.Store(FirstKey(Unbounded(ScreenMemo::kMaxEntries + 1)),
                          complete, {}));
  EXPECT_EQ(memo.size(), ScreenMemo::kMaxEntries);
  EXPECT_TRUE(memo.Find(FirstKey(Unbounded(1))).screen.has_value());
}

TEST_F(FirstScreenMemoTest, TraceSpanCountsOnlyHits) {
  ScreenMemo memo;
  // Runs `step` under a trace: the counts of its `screen_memo` spans, and
  // whether a greedy run happened.
  auto traced = [&](ExplorationSession& session, auto step) {
    Trace trace("request");
    TraceSpan root = trace.root();
    session.mutable_options().greedy.trace = &root;
    step();
    session.mutable_options().greedy.trace = nullptr;
    trace.Finish();
    std::vector<uint64_t> counts;
    bool greedy = false;
    for (const Trace::Span& s : trace.spans()) {
      if (std::string(s.name) == "screen_memo") counts.push_back(s.count);
      greedy = greedy || std::string(s.name) == "greedy";
    }
    return std::make_pair(counts, greedy);
  };
  auto session = SessionWith(&memo, Unbounded(4));
  auto start = [&] { session->Start(); };
  EXPECT_EQ(traced(*session, start),
            std::make_pair(std::vector<uint64_t>{0}, true));
  EXPECT_EQ(traced(*session, start),
            std::make_pair(std::vector<uint64_t>{1}, false));

  // A select looks its path up too. An unbounded run never qualifies by
  // cost, so the path stays a miss.
  const mining::GroupId g = session->Current().groups[0];
  auto select = [&] {
    session->SelectGroup(g);
    ASSERT_TRUE(session->Backtrack(0).ok());
  };
  EXPECT_EQ(traced(*session, select),
            std::make_pair(std::vector<uint64_t>{0}, true));
  EXPECT_EQ(traced(*session, select),
            std::make_pair(std::vector<uint64_t>{0}, true));

  // A session that bypasses the memo opens no span.
  session->SelectGroup(g);
  session->Unlearn(session->ContextTokens(1).at(0).token);
  EXPECT_EQ(traced(*session, select),
            std::make_pair(std::vector<uint64_t>{}, true));
}

TEST_F(FirstScreenMemoTest, ConcurrentStartsOnOneEngineAgree) {
  // Unbounded, so every miss that races the first store computes the same
  // complete screen; a bounded run could be truncated on a loaded host.
  SessionOptions options;
  options.greedy = Unbounded(6);
  options.greedy.lambda = 0.45;  // a key no other test of this engine uses
  const GreedySelection reference = ReferenceInitial(options.greedy);

  constexpr int kThreads = 4, kStarts = 50;
  std::vector<std::vector<GreedySelection>> screens(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStarts; ++i) {
        screens[t].push_back(engine_->CreateSession(options)->Start());
      }
    });
  }
  for (auto& th : threads) th.join();

  size_t hits = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(screens[t].size(), static_cast<size_t>(kStarts));
    for (const GreedySelection& s : screens[t]) {
      ExpectSameScreen(s, reference, "thread " + std::to_string(t));
      hits += s.memoized;
    }
  }
  // At most one miss per thread: each thread's first start either raced
  // the first store or already hit.
  EXPECT_GE(hits, static_cast<size_t>(kThreads * (kStarts - 1)));
  EXPECT_TRUE(
      engine_->screens().Find(FirstKey(options.greedy)).screen.has_value());
}

TEST_F(FirstScreenMemoTest, EverySessionOfAnEngineSharesOneTokenSpace) {
  auto a = engine_->CreateSession({});
  auto b = engine_->CreateSession({});
  EXPECT_EQ(&a->tokens(), &engine_->tokens());
  EXPECT_EQ(&b->tokens(), &engine_->tokens());

  // Moving the engine keeps the addresses its sessions hold.
  const TokenSpace* tokens = &engine_->tokens();
  const ScreenMemo* memo = &engine_->screens();
  VexusEngine moved = std::move(*engine_);
  EXPECT_EQ(&moved.tokens(), tokens);
  EXPECT_EQ(&moved.screens(), memo);
  EXPECT_EQ(&a->tokens(), &moved.tokens());
  *engine_ = std::move(moved);
}

// ---------------------------------------------------------------------------
// Click paths: cut runs are resumed until they converge, then served.
// ---------------------------------------------------------------------------

failpoint::Policy EveryNth(uint64_t n) {
  failpoint::Policy p;
  p.mode = failpoint::Policy::Mode::kEveryNth;
  p.nth = n;
  p.code = StatusCode::kOk;  // a fire only expires the run's deadline
  return p;
}

/// Cuts the greedy runs in its scope without sleeping: the seed stops after
/// its third new prior (once min(k, |pool|) are in), and a run's second
/// pass finds the deadline expired. Each scope restarts the counts, so one
/// armed select adds a fixed slice of work to its path's record.
struct Cuts {
  Cuts() : seed("greedy.seed", EveryNth(3)), pass("greedy.pass", EveryNth(2)) {}
  failpoint::ScopedFailpoint seed;
  failpoint::ScopedFailpoint pass;
};

std::string Fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Group ids, and coverage, diversity and objective at %.17g.
void ExpectSameScreen17(const GreedySelection& got, const GreedySelection& want,
                        const std::string& where) {
  EXPECT_EQ(got.groups, want.groups) << where;
  EXPECT_EQ(Fmt17(got.quality.coverage), Fmt17(want.quality.coverage))
      << where;
  EXPECT_EQ(Fmt17(got.quality.diversity), Fmt17(want.quality.diversity))
      << where;
  EXPECT_EQ(Fmt17(got.quality.objective), Fmt17(want.quality.objective))
      << where;
}

class ScreenMemoTest : public FirstScreenMemoTest {
 protected:
  /// The same world, with 48 neighbors materialized per group so that
  /// candidate pools are wide enough to cut several times.
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 600;
    cfg.num_books = 800;
    cfg.num_ratings = 4000;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = 0.03;
    index::InvertedIndex::Options index_opt;
    index_opt.min_neighbors = 48;
    engine_ = new VexusEngine(std::move(
        VexusEngine::Preprocess(data::BookCrossingGenerator::Generate(cfg),
                                opt, index_opt)
            .ValueOrDie()));
  }

  /// A budget no run here comes near: only the failpoints cut.
  static GreedyOptions Budgeted() {
    GreedyOptions greedy;
    greedy.k = 5;
    greedy.time_limit_ms = 60'000;
    return greedy;
  }

  static size_t PoolSize(mining::GroupId g, const GreedyOptions& greedy) {
    size_t n = 0;
    for (const index::Neighbor& nb : engine_->index().Neighbors(g)) {
      n += nb.similarity >= greedy.min_similarity;
    }
    return n;
  }

  /// The group with the largest candidate pool among `among` (all groups
  /// when empty), skipping `not_this`.
  static mining::GroupId WidestPool(const GreedyOptions& greedy,
                                    std::optional<mining::GroupId> not_this) {
    mining::GroupId best = 0;
    size_t best_size = 0;
    for (mining::GroupId g = 0; g < engine_->groups().size(); ++g) {
      if (g == not_this) continue;
      const size_t n = PoolSize(g, greedy);
      if (n > best_size) {
        best = g;
        best_size = n;
      }
    }
    return best;
  }

  /// Two clicks whose second screen has a pool wide enough for the cuts to
  /// stop its seed several times.
  static std::vector<mining::GroupId> DeepPath(const GreedyOptions& greedy) {
    const mining::GroupId first = WidestPool(greedy, std::nullopt);
    const mining::GroupId second = WidestPool(greedy, first);
    EXPECT_GT(PoolSize(second, greedy), greedy.k + 12);
    return {first, second};
  }

  static FeedbackVector Replayed(const std::vector<mining::GroupId>& path) {
    FeedbackVector feedback(&engine_->tokens());
    for (mining::GroupId g : path) {
      feedback.Learn(engine_->groups().group(g),
                     SessionOptions().learning_rate);
    }
    return feedback;
  }

  /// An unbounded SelectNext on the replayed feedback of `path`.
  static GreedySelection Reference(const std::vector<mining::GroupId>& path,
                                   const GreedyOptions& greedy) {
    GreedyOptions unbounded = greedy;
    unbounded.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
    return GreedySelector(&engine_->groups(), &engine_->index())
        .SelectNext(path.back(), Replayed(path), unbounded);
  }

  static ScreenMemo::Key PathKey(const GreedyOptions& greedy,
                                 std::vector<mining::GroupId> path) {
    return ScreenMemo::KeyOf(greedy, SessionOptions().learning_rate,
                             std::move(path));
  }

  /// One visit of `path` in a new session: the clicks before the last run
  /// unarmed, the last one under Cuts.
  static GreedySelection VisitFresh(ScreenMemo* memo,
                                    const GreedyOptions& greedy,
                                    const std::vector<mining::GroupId>& path) {
    auto session = SessionWith(memo, greedy);
    session->Start();
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      session->SelectGroup(path[i]);
    }
    Cuts cuts;
    return session->SelectGroup(path.back());
  }

  /// Calls `visit` until the memo serves its path as a hit. The first visit
  /// is cut and every later one resumes; the work record (seed_scored,
  /// swaps) never shrinks; the converged screen and the hit equal
  /// `reference`. Returns the visits made.
  template <typename Visit>
  static size_t VisitUntilHit(Visit visit, const GreedySelection& reference) {
    size_t seed_scored = 0, swaps = 0;
    bool converged = false;
    for (size_t v = 0; v < 200; ++v) {
      const GreedySelection s = visit();
      const std::string where = "visit " + std::to_string(v);
      if (s.memoized) {
        EXPECT_TRUE(converged) << where << ": a hit before any run converged";
        ExpectSameScreen17(s, reference, where + " (hit)");
        return v + 1;
      }
      EXPECT_FALSE(converged) << where << ": a converged path missed";
      EXPECT_EQ(s.resumed, v > 0) << where;
      EXPECT_GE(s.seed_scored, seed_scored) << where;
      EXPECT_GE(s.swaps, swaps) << where;
      seed_scored = s.seed_scored;
      swaps = s.swaps;
      if (!s.deadline_hit) {
        converged = true;
        EXPECT_EQ(s.seed_scored, s.candidates) << where;
        EXPECT_EQ(s.swaps, reference.swaps) << where;
        ExpectSameScreen17(s, reference, where + " (converged)");
      }
    }
    ADD_FAILURE() << "the path was never served as a hit";
    return 0;
  }
};

TEST_F(ScreenMemoTest, ResumedAndHitScreensEqualTheUnboundedScreen) {
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  const GreedySelection reference = Reference(path, greedy);
  ASSERT_GE(reference.swaps, 1u) << "the path needs a refine pass";

  const size_t visits = VisitUntilHit(
      [&] { return VisitFresh(&memo, greedy, path); }, reference);
  EXPECT_GE(visits, 4u) << "cut, resumed, converged, hit";
  // The first click converged inside its budget, so only the first screen
  // and the cut path hold entries.
  EXPECT_EQ(memo.stats().by_path_length,
            (std::vector<size_t>{1, 0, 1, 0, 0, 0, 0, 0, 0}));

  // A session with other execution options is served the same screen.
  GreedyOptions tight = greedy;
  tight.time_limit_ms = 0;
  auto session = SessionWith(&memo, tight);
  session->Start();
  session->SelectGroup(path[0]);
  const GreedySelection& hit = session->SelectGroup(path[1]);
  EXPECT_TRUE(hit.memoized);
  ExpectSameScreen17(hit, reference, "zero budget");
}

TEST_F(ScreenMemoTest, BacktrackedPathResumesToTheUnboundedScreen) {
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  const GreedySelection reference = Reference(path, greedy);

  auto session = SessionWith(&memo, greedy);
  session->Start();
  session->SelectGroup(path[0]);
  VisitUntilHit(
      [&] {
        EXPECT_TRUE(session->Backtrack(1).ok());
        Cuts cuts;
        return session->SelectGroup(path[1]);
      },
      reference);

  // The path reached afresh is served the entry the backtracks built.
  const GreedySelection fresh = VisitFresh(&memo, greedy, path);
  EXPECT_TRUE(fresh.memoized);
  ExpectSameScreen17(fresh, reference, "fresh session");
}

TEST_F(ScreenMemoTest, UnlearnedSessionNeitherReadsNorWritesTheMemo) {
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  VisitUntilHit([&] { return VisitFresh(&memo, greedy, path); },
                Reference(path, greedy));
  const size_t entries = memo.size();

  auto session = SessionWith(&memo, greedy);
  session->Start();
  session->SelectGroup(path[0]);
  const auto top = session->ContextTokens(1);
  ASSERT_FALSE(top.empty());
  session->Unlearn(top[0].token);
  {
    Cuts cuts;
    const GreedySelection& s = session->SelectGroup(path[1]);
    EXPECT_FALSE(s.memoized) << "read the converged entry";
    EXPECT_FALSE(s.resumed);
    EXPECT_TRUE(s.deadline_hit);
    // A cut run on a path with no entry would admit one.
    const GreedySelection& next = session->SelectGroup(path[0]);
    EXPECT_TRUE(next.deadline_hit);
  }
  EXPECT_EQ(memo.size(), entries) << "wrote an entry";
  // A backtrack keeps the bypass; only Start ends it.
  ASSERT_TRUE(session->Backtrack(1).ok());
  EXPECT_FALSE(session->SelectGroup(path[1]).memoized);
  session->Start();
  session->SelectGroup(path[0]);
  EXPECT_TRUE(session->SelectGroup(path[1]).memoized);
}

TEST_F(ScreenMemoTest, PathConvergingWithinBudgetAdmitsNoEntry) {
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  auto session = SessionWith(&memo, greedy);
  session->Start();
  for (mining::GroupId g : path) {
    const GreedySelection& s = session->SelectGroup(g);
    EXPECT_FALSE(s.deadline_hit);
    EXPECT_FALSE(s.memoized);
    EXPECT_FALSE(s.resumed);
  }
  EXPECT_EQ(memo.size(), 1u) << "only the first screen";
  EXPECT_EQ(memo.stats().by_path_length[0], 1u);
}

TEST_F(ScreenMemoTest, ConvergedRunIsStoredWhenItUsedASixteenthOfItsLimit) {
  const GreedyOptions greedy = Budgeted();
  GreedySelection run;
  run.groups = {1, 2};
  run.time_limit_ms = 80;
  EXPECT_EQ(GreedySelection().time_limit_ms,
            GreedyOptions::kUnboundedTimeLimit);

  ScreenMemo memo;
  // Cost is the run's own work, not its wall-clock: 5 ms of an 80 ms limit.
  EXPECT_EQ(ScreenMemo::kAdmitShare * 80, 5.0);
  run.elapsed_ms = 1e300;
  run.cpu_ms = std::nextafter(5.0f, 0.0f);
  EXPECT_FALSE(memo.Store(PathKey(greedy, {4}), run, {})) << "just below";
  run.cpu_ms = 5.0f;
  run.elapsed_ms = 0;
  const ScreenMemo::Key line = PathKey(greedy, {3});
  EXPECT_TRUE(memo.Store(line, run, {}));
  const ScreenMemo::Lookup hit = memo.Find(line);
  ASSERT_TRUE(hit.screen.has_value());
  EXPECT_TRUE(hit.screen->memoized);
  EXPECT_EQ(hit.screen->groups, run.groups);
  EXPECT_EQ(hit.screen->time_limit_ms, GreedyOptions::kUnboundedTimeLimit);
  EXPECT_EQ(hit.screen->cpu_ms, 0.0f);

  // Without a finite limit no run is expensive, however long it took.
  run.cpu_ms = std::numeric_limits<float>::max();
  for (double limit : {GreedyOptions::kUnboundedTimeLimit,
                       std::numeric_limits<double>::quiet_NaN()}) {
    run.time_limit_ms = limit;
    EXPECT_FALSE(memo.Store(PathKey(greedy, {4}), run, {})) << limit;
  }
  EXPECT_FALSE(memo.Find(PathKey(greedy, {4})).screen.has_value());
  EXPECT_TRUE(memo.Find(PathKey(greedy, {4})).record.affinity.empty());

  // The other rules hold whatever the cost: the empty path is stored when
  // it converges, and never when cut; a cut run on another path stores its
  // record; a partial fold and an over-long path are never stored.
  GreedySelection cheap;
  cheap.groups = {1, 2};
  EXPECT_TRUE(memo.Store(FirstKey(greedy), cheap, {}));
  GreedySelection expensive = cheap;
  expensive.time_limit_ms = 80;
  expensive.cpu_ms = 80;
  GreedySelection cut = expensive;
  cut.deadline_hit = true;
  EXPECT_FALSE(memo.Store(FirstKey(Unbounded(2)), cut, {}));
  WorkRecord record;
  record.affinity = {0.5, 0.25, 0.125};
  cheap.deadline_hit = true;
  EXPECT_TRUE(memo.Store(PathKey(greedy, {5}), cheap, record));
  EXPECT_FALSE(memo.Find(PathKey(greedy, {5})).screen.has_value());
  GreedySelection partial = expensive;
  partial.covered_fraction = 0.5;
  EXPECT_FALSE(memo.Store(PathKey(greedy, {6}), partial, {}));
  std::vector<mining::GroupId> deep(ScreenMemo::kMaxPathLength + 1, 3);
  EXPECT_FALSE(memo.Store(PathKey(greedy, deep), expensive, {}));

  const ScreenMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.screens, 2u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.refused_full, 0u);
  EXPECT_EQ(stats.by_path_length,
            (std::vector<size_t>{1, 2, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_F(ScreenMemoTest, SlowConvergedPathIsAHitOnItsNextVisit) {
  // Under a zero limit every run uses its admission share. A click whose
  // pool holds exactly k candidates selects them all and converges with no
  // pass, so that run is expensive and converged, with no sleep.
  GreedyOptions greedy = Budgeted();
  const mining::GroupId g = WidestPool(greedy, std::nullopt);
  greedy.k = PoolSize(g, greedy);
  ASSERT_GE(greedy.k, 2u);
  greedy.time_limit_ms = 0;
  const GreedySelection reference = Reference({g}, greedy);

  ScreenMemo memo;
  auto visit = [&] {
    auto session = SessionWith(&memo, greedy);
    session->Start();
    return session->SelectGroup(g);
  };
  const GreedySelection first = visit();
  EXPECT_FALSE(first.deadline_hit);
  EXPECT_FALSE(first.memoized);
  EXPECT_EQ(first.candidates, greedy.k);
  EXPECT_EQ(first.time_limit_ms, 0.0);
  ExpectSameScreen17(first, reference, "converged");
  EXPECT_EQ(memo.stats().screens, 1u) << "the cut start is not stored";
  const GreedySelection second = visit();
  EXPECT_TRUE(second.memoized);
  ExpectSameScreen17(second, reference, "hit");

  // The control: the same path converging without a finite limit.
  ScreenMemo unbounded;
  greedy.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
  auto session = SessionWith(&unbounded, greedy);
  session->Start();
  EXPECT_FALSE(session->SelectGroup(g).memoized);
  EXPECT_EQ(unbounded.stats().by_path_length[1], 0u);
}

TEST_F(ScreenMemoTest, FleetRunNeverQualifiesByCost) {
  // The run SlowConvergedPathIsAHitOnItsNextVisit stores, on a fleet: its
  // CPU time holds a varying share of the laps, so it does not count.
  GreedyOptions greedy = Budgeted();
  const mining::GroupId g = WidestPool(greedy, std::nullopt);
  greedy.k = PoolSize(g, greedy);
  ASSERT_GE(greedy.k, 2u);
  greedy.time_limit_ms = 0;
  PartialScatterer healthy(&engine_->groups(), 1.0);
  greedy.remote_scatter = &healthy;

  ScreenMemo memo;
  for (int visit = 0; visit < 2; ++visit) {
    auto session = SessionWith(&memo, greedy);
    session->Start();
    const GreedySelection& s = session->SelectGroup(g);
    EXPECT_FALSE(s.deadline_hit) << visit;
    EXPECT_FALSE(s.memoized) << visit;
  }
  EXPECT_EQ(memo.size(), 0u);

  // The other rules hold on a fleet: a cut run stores its record, its
  // converged resume the screen, and the first screen is stored.
  GreedySelection expensive;
  expensive.groups = {1, 2};
  expensive.time_limit_ms = 80;
  expensive.cpu_ms = 80;
  EXPECT_FALSE(memo.Store(PathKey(greedy, {3}), expensive, {}, true));
  EXPECT_TRUE(memo.Store(PathKey(greedy, {3}), expensive, {}, false))
      << "the control";
  GreedySelection cut = expensive;
  cut.deadline_hit = true;
  WorkRecord record;
  record.affinity = {0.5, 0.25, 0.125};
  EXPECT_TRUE(memo.Store(PathKey(greedy, {4}), cut, record, true));
  EXPECT_TRUE(memo.Store(PathKey(greedy, {4}), expensive, {}, true));
  EXPECT_TRUE(memo.Find(PathKey(greedy, {4})).screen.has_value());
  EXPECT_TRUE(memo.Store(FirstKey(greedy), expensive, {}, true));
  EXPECT_EQ(memo.stats().screens, 3u);
}

TEST_F(ScreenMemoTest, FullMemoStopsAdmittingButStillServes) {
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  GreedySelection cut;
  cut.groups = {1, 2};
  cut.deadline_hit = true;
  WorkRecord record;
  record.affinity = {0.5, 0.25, 0.125};
  record.priors = {1.5};
  for (uint32_t g = 0; g < ScreenMemo::kMaxEntries; ++g) {
    ASSERT_TRUE(memo.Store(PathKey(greedy, {g}), cut, record)) << g;
  }
  const uint32_t past = ScreenMemo::kMaxEntries;
  EXPECT_FALSE(memo.Store(PathKey(greedy, {past}), cut, record));
  EXPECT_FALSE(memo.Store(FirstKey(greedy), GreedySelection(), {}));
  GreedySelection expensive;
  expensive.time_limit_ms = 80;
  expensive.cpu_ms = 80;
  EXPECT_FALSE(memo.Store(PathKey(greedy, {past + 1}), expensive, {}));
  EXPECT_EQ(memo.size(), ScreenMemo::kMaxEntries);
  ScreenMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.by_path_length[1], ScreenMemo::kMaxEntries);
  EXPECT_EQ(stats.records, ScreenMemo::kMaxEntries);
  EXPECT_EQ(stats.refused_full, 3u);

  // Stored records still advance, only ever forward, and converge.
  const ScreenMemo::Key key = PathKey(greedy, {7});
  EXPECT_EQ(memo.Find(key).record.priors, record.priors);
  EXPECT_FALSE(memo.Store(key, cut, record)) << "not longer";
  WorkRecord longer = record;
  longer.priors.push_back(1.25);
  EXPECT_TRUE(memo.Store(key, cut, longer));
  EXPECT_FALSE(memo.Store(key, cut, record)) << "shorter";
  EXPECT_EQ(memo.Find(key).record.priors.size(), 2u);
  GreedySelection converged = cut;
  converged.deadline_hit = false;
  converged.swaps = 3;
  EXPECT_TRUE(memo.Store(key, converged, {}));
  const ScreenMemo::Lookup hit = memo.Find(key);
  ASSERT_TRUE(hit.screen.has_value());
  EXPECT_TRUE(hit.screen->memoized);
  EXPECT_EQ(hit.screen->swaps, 0u);
  EXPECT_TRUE(hit.record.affinity.empty()) << "a converged entry is compact";
  EXPECT_TRUE(hit.record.priors.empty());
  EXPECT_FALSE(memo.Store(key, cut, longer)) << "the screen stays";
  stats = memo.stats();
  EXPECT_EQ(stats.screens, 1u);
  EXPECT_EQ(stats.records, ScreenMemo::kMaxEntries - 1);
  EXPECT_EQ(stats.refused_full, 3u) << "an existing entry is no admission";

  // Paths past the bound are never stored, by a session either.
  ScreenMemo empty;
  std::vector<mining::GroupId> deep(ScreenMemo::kMaxPathLength + 1, 3);
  EXPECT_FALSE(empty.Store(PathKey(greedy, deep), cut, record));
  EXPECT_EQ(empty.stats().by_path_length.size(),
            ScreenMemo::kMaxPathLength + 1);
  auto session = SessionWith(&empty, greedy);
  session->Start();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  for (size_t i = 0; i < ScreenMemo::kMaxPathLength; ++i) {
    session->SelectGroup(path[i % 2]);
  }
  Cuts cuts;
  EXPECT_TRUE(session->SelectGroup(path[1]).deadline_hit);
  EXPECT_EQ(empty.size(), 1u) << "only the first screen";
}

TEST_F(ScreenMemoTest, PartialFoldPassIsNeverStored) {
  const std::vector<mining::GroupId> path = DeepPath(Budgeted());
  // The pass failpoint alone, firing at the first pass: the seed completes,
  // and the expired deadline ends the run after that one pass, which a
  // remote lap scores over the scatterer's fold.
  auto cut_after_one_pass = [&](double covered_fraction, ScreenMemo* memo) {
    PartialScatterer scatterer(&engine_->groups(), covered_fraction);
    GreedyOptions greedy = Budgeted();
    greedy.remote_scatter = &scatterer;
    auto session = SessionWith(memo, greedy);
    session->Start();
    session->SelectGroup(path[0]);
    failpoint::ScopedFailpoint pass("greedy.pass", EveryNth(1));
    const GreedySelection s = session->SelectGroup(path[1]);
    EXPECT_TRUE(s.deadline_hit);
    EXPECT_FALSE(s.seed_truncated);
    EXPECT_EQ(s.swaps, 1u);
    EXPECT_EQ(s.covered_fraction, covered_fraction);
    return memo->stats().by_path_length[2];
  };
  ScreenMemo partial;
  EXPECT_EQ(cut_after_one_pass(0.5, &partial), 0u);
  EXPECT_EQ(partial.size(), 0u) << "no first screen either";
  ScreenMemo healthy;
  EXPECT_EQ(cut_after_one_pass(1.0, &healthy), 1u) << "the control";
}

TEST_F(ScreenMemoTest, ConcurrentResumesKeepTheLongerRecord) {
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  const ScreenMemo::Key key = PathKey(greedy, path);
  const FeedbackVector feedback = Replayed(path);
  const GreedySelector selector(&engine_->groups(), &engine_->index());
  auto run = [&](uint64_t seed_nth, WorkRecord* record) {
    failpoint::ScopedFailpoint seed("greedy.seed", EveryNth(seed_nth));
    return selector.SelectNext(path.back(), feedback, greedy, record);
  };

  WorkRecord first;
  const GreedySelection cut = run(3, &first);
  ASSERT_TRUE(cut.seed_truncated);
  // Two sessions find the same record; one goes further than the other.
  WorkRecord far = first, near = first;
  const GreedySelection far_run = run(8, &far);
  const GreedySelection near_run = run(3, &near);
  ASSERT_TRUE(far_run.resumed && near_run.resumed);
  ASSERT_GT(far.priors.size(), near.priors.size());

  for (bool far_first : {true, false}) {
    ScreenMemo memo;
    ASSERT_TRUE(memo.Store(key, cut, first));
    if (far_first) {
      EXPECT_TRUE(memo.Store(key, far_run, far));
      EXPECT_FALSE(memo.Store(key, near_run, near));
    } else {
      EXPECT_TRUE(memo.Store(key, near_run, near));
      EXPECT_TRUE(memo.Store(key, far_run, far));
    }
    EXPECT_EQ(memo.Find(key).record.priors, far.priors) << far_first;
  }
}

TEST_F(ScreenMemoTest, ConcurrentVisitsOfOnePathAgree) {
  // Sessions on several threads visit one path at once, each select cut at
  // a shared failpoint count, until the memo serves the path. Every screen
  // that did not hit the deadline equals the unbounded one.
  ScreenMemo memo;
  const GreedyOptions greedy = Budgeted();
  const std::vector<mining::GroupId> path = DeepPath(greedy);
  const GreedySelection reference = Reference(path, greedy);
  failpoint::ScopedFailpoint seed("greedy.seed", EveryNth(2));
  failpoint::ScopedFailpoint pass("greedy.pass", EveryNth(2));

  constexpr int kThreads = 4;
  std::vector<std::vector<GreedySelection>> screens(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int v = 0; v < 400; ++v) {
        auto session = SessionWith(&memo, greedy);
        session->Start();
        session->SelectGroup(path[0]);
        screens[t].push_back(session->SelectGroup(path[1]));
        if (screens[t].back().memoized) break;
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(screens[t].empty());
    EXPECT_TRUE(screens[t].back().memoized) << "thread " << t;
    for (const GreedySelection& s : screens[t]) {
      if (!s.deadline_hit) {
        ExpectSameScreen17(s, reference, "thread " + std::to_string(t));
      }
    }
  }
  const ScreenMemo::Lookup entry = memo.Find(PathKey(greedy, path));
  ASSERT_TRUE(entry.screen.has_value());
  ExpectSameScreen17(*entry.screen, reference, "stored");
}

}  // namespace
}  // namespace vexus::core
