#include "core/session.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus::core {
namespace {

class SessionTest : public ::testing::Test {
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

  std::unique_ptr<ExplorationSession> NewSession(size_t k = 5) {
    SessionOptions opt;
    opt.greedy.k = k;
    opt.greedy.time_limit_ms = 50;
    return engine_->CreateSession(opt);
  }

  static VexusEngine* engine_;
};

VexusEngine* SessionTest::engine_ = nullptr;

TEST_F(SessionTest, StartShowsInitialScreen) {
  auto s = NewSession();
  const auto& first = s->Start();
  EXPECT_EQ(first.groups.size(), 5u);
  EXPECT_EQ(s->NumSteps(), 1u);
  EXPECT_FALSE(s->Step(0).selected.has_value());
  EXPECT_TRUE(s->feedback().Empty());
}

TEST_F(SessionTest, SelectGroupAdvancesHistoryAndLearns) {
  auto s = NewSession();
  const auto& first = s->Start();
  mining::GroupId g = first.groups.front();
  const auto& second = s->SelectGroup(g);
  EXPECT_EQ(s->NumSteps(), 2u);
  EXPECT_EQ(s->Step(1).selected, g);
  EXPECT_FALSE(s->feedback().Empty());
  EXPECT_FALSE(second.groups.empty());
}

TEST_F(SessionTest, SelectionNeverIncludesAnchor) {
  auto s = NewSession();
  const auto& first = s->Start();
  mining::GroupId g = first.groups.front();
  const auto& second = s->SelectGroup(g);
  EXPECT_EQ(std::find(second.groups.begin(), second.groups.end(), g),
            second.groups.end());
}

TEST_F(SessionTest, RepeatedStepsKeepScreensBounded) {
  auto s = NewSession(4);
  const auto* shown = &s->Start();
  for (int i = 0; i < 6 && !shown->groups.empty(); ++i) {
    shown = &s->SelectGroup(shown->groups.front());
    EXPECT_LE(shown->groups.size(), 4u);
  }
  EXPECT_GE(s->NumSteps(), 2u);
}

TEST_F(SessionTest, BacktrackRestoresFeedback) {
  auto s = NewSession();
  const auto& first = s->Start();
  mining::GroupId g0 = first.groups[0];
  const auto& second = s->SelectGroup(g0);
  // Snapshot CONTEXT after first click.
  auto tokens_after_1 = s->ContextTokens(100);
  if (!second.groups.empty()) {
    s->SelectGroup(second.groups[0]);
    EXPECT_EQ(s->NumSteps(), 3u);
  }
  ASSERT_TRUE(s->Backtrack(1).ok());
  EXPECT_EQ(s->NumSteps(), 2u);
  auto restored = s->ContextTokens(100);
  ASSERT_EQ(restored.size(), tokens_after_1.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].token, tokens_after_1[i].token);
    EXPECT_DOUBLE_EQ(restored[i].score, tokens_after_1[i].score);
  }
}

TEST_F(SessionTest, LiveFeedbackIsTheLastHistorySnapshot) {
  // The session keeps one vector per step: the live CONTEXT is the last
  // step's snapshot, not a second copy of it, until Unlearn edits it.
  auto s = NewSession();
  const auto& first = s->Start();
  EXPECT_EQ(&s->feedback(), &s->Step(0).feedback_snapshot);
  s->SelectGroup(first.groups[0]);
  EXPECT_EQ(&s->feedback(), &s->Step(1).feedback_snapshot);

  const Token top = s->ContextTokens(1).at(0).token;
  s->Unlearn(top);
  EXPECT_NE(&s->feedback(), &s->Step(1).feedback_snapshot);
  EXPECT_EQ(s->feedback().Score(top), 0.0);
  EXPECT_GT(s->Step(1).feedback_snapshot.Score(top), 0.0);
  ASSERT_TRUE(s->Backtrack(1).ok());
  EXPECT_EQ(&s->feedback(), &s->Step(1).feedback_snapshot);

  s->Unlearn(top);
  s->SelectGroup(first.groups[1]);
  EXPECT_EQ(&s->feedback(), &s->Step(2).feedback_snapshot);
}

TEST_F(SessionTest, BacktrackToStartClearsLearning) {
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);
  ASSERT_TRUE(s->Backtrack(0).ok());
  EXPECT_EQ(s->NumSteps(), 1u);
  EXPECT_TRUE(s->feedback().Empty());
}

TEST_F(SessionTest, BacktrackOutOfRangeFails) {
  auto s = NewSession();
  s->Start();
  Status st = s->Backtrack(5);
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_EQ(s->NumSteps(), 1u);
}

TEST_F(SessionTest, UnlearnRemovesContextToken) {
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);
  auto context = s->ContextTokens(1);
  ASSERT_FALSE(context.empty());
  Token top = context[0].token;
  s->Unlearn(top);
  EXPECT_DOUBLE_EQ(s->feedback().Score(top), 0.0);
}

TEST_F(SessionTest, BacktrackRestoresPreUnlearnSnapshotExactly) {
  // Interplay regression: Unlearn mutates the *live* CONTEXT only — the
  // per-step snapshots in HISTORY must stay untouched, so backtracking to a
  // step restores the feedback state as it was at that step, unlearn and
  // all. (A snapshot aliasing bug would let Unlearn reach back into
  // history and make backtrack restore the post-unlearn state.)
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);

  // Full CONTEXT as recorded at step 1, before any unlearning.
  auto pre_unlearn = s->ContextTokens(1000);
  size_t pre_nonzero = s->feedback().nonzero_count();
  ASSERT_FALSE(pre_unlearn.empty());

  // Unlearn the strongest token; the live state must change...
  Token top = pre_unlearn[0].token;
  double top_score = pre_unlearn[0].score;
  ASSERT_NE(top_score, 0.0);
  s->Unlearn(top);
  EXPECT_DOUBLE_EQ(s->feedback().Score(top), 0.0);
  EXPECT_LT(s->feedback().nonzero_count(), pre_nonzero);

  // ...while the recorded step-1 snapshot must not.
  EXPECT_DOUBLE_EQ(s->Step(1).feedback_snapshot.Score(top), top_score);

  // Backtrack to step 1: the pre-unlearn feedback comes back exactly.
  ASSERT_TRUE(s->Backtrack(1).ok());
  EXPECT_EQ(s->feedback().nonzero_count(), pre_nonzero);
  EXPECT_DOUBLE_EQ(s->feedback().Score(top), top_score);
  auto restored = s->ContextTokens(1000);
  ASSERT_EQ(restored.size(), pre_unlearn.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].token, pre_unlearn[i].token);
    EXPECT_DOUBLE_EQ(restored[i].score, pre_unlearn[i].score);
  }

  // And unlearning again after the backtrack works on the restored state.
  s->Unlearn(top);
  EXPECT_DOUBLE_EQ(s->feedback().Score(top), 0.0);
  ASSERT_TRUE(s->Backtrack(0).ok());
  EXPECT_TRUE(s->feedback().Empty());
}

TEST_F(SessionTest, UnlearnChangesNextRecommendations) {
  // Learned bias toward a group should shift weighted affinity; removing
  // all its tokens must restore neutral scoring (paper's gender-rebalance
  // workflow, tested end-to-end in E10's bench).
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);
  size_t before = s->feedback().nonzero_count();
  auto context = s->ContextTokens(1000);
  for (const auto& ts : context) s->Unlearn(ts.token);
  EXPECT_TRUE(s->feedback().Empty());
  EXPECT_LT(s->feedback().nonzero_count(), before);
}

TEST_F(SessionTest, MemoBookmarks) {
  auto s = NewSession();
  const auto& first = s->Start();
  s->BookmarkGroup(first.groups[0]);
  s->BookmarkGroup(first.groups[0]);  // duplicate ignored
  s->BookmarkUser(3);
  s->BookmarkUser(3);
  s->BookmarkUser(7);
  EXPECT_EQ(s->memo().groups.size(), 1u);
  EXPECT_EQ(s->memo().users, (std::vector<data::UserId>{3, 7}));
}

TEST_F(SessionTest, StartResetsEverything) {
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);
  s->BookmarkUser(1);
  s->Start();
  EXPECT_EQ(s->NumSteps(), 1u);
  EXPECT_TRUE(s->feedback().Empty());
  EXPECT_TRUE(s->memo().users.empty());
}

TEST_F(SessionTest, LatencyIsRecordedPerStep) {
  auto s = NewSession();
  const auto& first = s->Start();
  EXPECT_GE(first.elapsed_ms, 0.0);
  const auto& second = s->SelectGroup(first.groups[0]);
  EXPECT_GE(second.elapsed_ms, 0.0);
  // The 50 ms budget plus overhead: generous sanity ceiling.
  EXPECT_LT(second.elapsed_ms, 5000.0);
}

}  // namespace
}  // namespace vexus::core
