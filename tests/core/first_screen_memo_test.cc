#include "core/first_screen_memo.h"

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
      FirstScreenMemo* memo, const GreedyOptions& greedy) {
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
  FirstScreenMemo memo;
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
  FirstScreenMemo memo;
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
  FirstScreenMemo memo;
  GreedyOptions stored = Unbounded(5);
  ASSERT_TRUE(memo.Store(stored, ReferenceInitial(stored)));

  // Budget, scatterer and trace change how a run executes, not
  // what a complete run returns.
  GreedyOptions same = stored;
  same.time_limit_ms = 0;
  Trace trace("request");
  TraceSpan root = trace.root();
  same.trace = &root;
  PartialScatterer scatterer(&engine_->groups(), 1.0);
  same.remote_scatter = &scatterer;
  // Unused without an anchor.
  same.min_similarity = 0.5;
  same.refinement_quota = 0;
  EXPECT_TRUE(memo.Find(same).has_value());

  // Everything that decides the screen is part of the key.
  GreedyOptions other = stored;
  other.k = 6;
  EXPECT_FALSE(memo.Find(other).has_value());
  other = stored;
  other.lambda = 0.25;
  EXPECT_FALSE(memo.Find(other).has_value());
  other = stored;
  other.feedback_weight = 0.1;
  EXPECT_FALSE(memo.Find(other).has_value());
  other = stored;
  other.initial_candidate_cap = 128;
  EXPECT_FALSE(memo.Find(other).has_value());
}

TEST_F(FirstScreenMemoTest, DeadlineHitStartIsNeverStored) {
  FirstScreenMemo memo;
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
  FirstScreenMemo memo;
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
  FirstScreenMemo memo;
  GreedySelection truncated;
  truncated.groups = {1, 2};
  truncated.deadline_hit = true;
  EXPECT_FALSE(memo.Store(Unbounded(2), truncated));
  GreedySelection partial;
  partial.groups = {1, 2};
  partial.covered_fraction = 0.5;
  EXPECT_FALSE(memo.Store(Unbounded(2), partial));
  EXPECT_EQ(memo.size(), 0u);

  GreedySelection complete;
  complete.groups = {1, 2};
  for (size_t k = 1; k <= FirstScreenMemo::kMaxEntries; ++k) {
    EXPECT_TRUE(memo.Store(Unbounded(k), complete)) << k;
  }
  EXPECT_FALSE(memo.Store(Unbounded(1), complete)) << "first store wins";
  EXPECT_FALSE(
      memo.Store(Unbounded(FirstScreenMemo::kMaxEntries + 1), complete));
  EXPECT_EQ(memo.size(), FirstScreenMemo::kMaxEntries);
  EXPECT_TRUE(memo.Find(Unbounded(1)).has_value());
}

TEST_F(FirstScreenMemoTest, TraceSpanCountsOnlyHits) {
  FirstScreenMemo memo;
  auto first_screen_span = [&](ExplorationSession& session) {
    Trace trace("request");
    TraceSpan root = trace.root();
    session.mutable_options().greedy.trace = &root;
    session.Start();
    session.mutable_options().greedy.trace = nullptr;
    trace.Finish();
    std::vector<Trace::Span> found;
    bool greedy = false;
    for (const Trace::Span& s : trace.spans()) {
      if (std::string(s.name) == "first_screen") found.push_back(s);
      greedy = greedy || std::string(s.name) == "greedy";
    }
    EXPECT_EQ(found.size(), 1u);
    return std::make_pair(found.empty() ? uint64_t{99} : found[0].count,
                          greedy);
  };
  auto session = SessionWith(&memo, Unbounded(4));
  auto miss = first_screen_span(*session);
  EXPECT_EQ(miss.first, 0u);
  EXPECT_TRUE(miss.second);
  auto hit = first_screen_span(*session);
  EXPECT_EQ(hit.first, 1u);
  EXPECT_FALSE(hit.second);
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
  EXPECT_TRUE(engine_->first_screens().Find(options.greedy).has_value());
}

TEST_F(FirstScreenMemoTest, EverySessionOfAnEngineSharesOneTokenSpace) {
  auto a = engine_->CreateSession({});
  auto b = engine_->CreateSession({});
  EXPECT_EQ(&a->tokens(), &engine_->tokens());
  EXPECT_EQ(&b->tokens(), &engine_->tokens());

  // Moving the engine keeps the addresses its sessions hold.
  const TokenSpace* tokens = &engine_->tokens();
  const FirstScreenMemo* memo = &engine_->first_screens();
  VexusEngine moved = std::move(*engine_);
  EXPECT_EQ(&moved.tokens(), tokens);
  EXPECT_EQ(&moved.first_screens(), memo);
  EXPECT_EQ(&a->tokens(), &moved.tokens());
  *engine_ = std::move(moved);
}

}  // namespace
}  // namespace vexus::core
