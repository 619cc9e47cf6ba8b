#include "core/session.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
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

TEST_F(SessionTest, UnlearnIsRecordedOnTheCurrentStep) {
  // HISTORY keeps no vector: a deletion is recorded on the step that was
  // current, a click leaves it there, and a backtrack to that step drops it.
  auto s = NewSession();
  const auto& first = s->Start();
  s->SelectGroup(first.groups[0]);
  EXPECT_TRUE(s->Step(1).unlearned.empty());

  const Token top = s->ContextTokens(1).at(0).token;
  s->Unlearn(top);
  EXPECT_EQ(s->feedback().Score(top), 0.0);
  EXPECT_EQ(s->Step(1).unlearned, std::vector<Token>{top});

  s->SelectGroup(first.groups[1]);
  EXPECT_EQ(s->Step(1).unlearned, std::vector<Token>{top});
  EXPECT_TRUE(s->Step(2).unlearned.empty());

  ASSERT_TRUE(s->Backtrack(1).ok());
  EXPECT_TRUE(s->Step(1).unlearned.empty());
  EXPECT_GT(s->feedback().Score(top), 0.0);
}

TEST_F(SessionTest, UnlearnOfAnAbsentTokenRecordsNothing) {
  // Only a token the vector held is recorded, so a client repeating a
  // deletion cannot grow a step's list; before the first click the vector
  // is empty and nothing is recorded either.
  auto s = NewSession();
  s->Unlearn(0);  // before Start: no step to record on
  const auto& first = s->Start();
  s->Unlearn(0);
  EXPECT_TRUE(s->Step(0).unlearned.empty());

  s->SelectGroup(first.groups[0]);
  const Token top = s->ContextTokens(1).at(0).token;
  s->Unlearn(top);
  s->Unlearn(top);
  EXPECT_EQ(s->Step(1).unlearned, std::vector<Token>{top});
}

// The feedback model before HISTORY became a click path: one vector per
// step, the state after that step's click, plus a copy that Unlearn edits
// until the next click or backtrack. It is the oracle for the fold.
class SnapshotModel {
 public:
  SnapshotModel(const TokenSpace* tokens, double eta)
      : eta_(eta), snapshots_{FeedbackVector(tokens)} {}
  void Select(const mining::UserGroup& g) {
    snapshots_.push_back(feedback().Learned(g, eta_));
    edited_.reset();
  }
  void Unlearn(Token t) {
    if (!edited_.has_value()) edited_ = snapshots_.back();
    edited_->Unlearn(t);
  }
  void Backtrack(size_t i) {
    snapshots_.erase(snapshots_.begin() + static_cast<ptrdiff_t>(i) + 1,
                     snapshots_.end());
    edited_.reset();
  }
  const FeedbackVector& feedback() const {
    return edited_.has_value() ? *edited_ : snapshots_.back();
  }

 private:
  double eta_;
  std::vector<FeedbackVector> snapshots_;
  std::optional<FeedbackVector> edited_;
};

// Token for token, and every score bit for bit.
void ExpectSameVector(const FeedbackVector& got, const FeedbackVector& want,
                      const std::string& where) {
  ASSERT_EQ(got.nonzero_count(), want.nonzero_count()) << where;
  const auto a = got.TopTokens(got.nonzero_count());
  const auto b = want.TopTokens(want.nonzero_count());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].token, b[i].token) << where << ", rank " << i;
    ASSERT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(double)), 0)
        << where << ", token " << a[i].token;
  }
}

TEST_F(SessionTest, FeedbackFoldMatchesTheSnapshotModel) {
  // Seeded random scripts of clicks, CONTEXT deletions (held and absent
  // tokens) and backtracks; after every op the live vector must equal the
  // snapshot model's exactly.
  const TokenSpace* tokens = &engine_->tokens();
  const auto num_groups = static_cast<uint32_t>(engine_->groups().size());
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    auto s = NewSession(3);
    SnapshotModel model(tokens, SessionOptions{}.learning_rate);
    const GreedySelection* shown = &s->Start();
    for (int op = 0; op < 60; ++op) {
      const uint32_t pick = rng.UniformU32(10);
      std::string what;
      if (pick < 4) {
        // Mostly a shown group; sometimes any group, as a client may send.
        mining::GroupId g;
        if (pick < 3 && !shown->groups.empty()) {
          g = shown->groups[rng.UniformU32(
              static_cast<uint32_t>(shown->groups.size()))];
        } else {
          g = rng.UniformU32(num_groups);
        }
        what = StrCat("select ", g);
        shown = &s->SelectGroup(g);
        model.Select(engine_->groups().group(g));
      } else if (pick < 8) {
        Token t = rng.UniformU32(tokens->num_tokens());
        const auto top = s->ContextTokens(20);
        if (pick < 7 && !top.empty()) {
          t = top[rng.UniformU32(static_cast<uint32_t>(top.size()))].token;
        }
        what = StrCat("unlearn ", t);
        s->Unlearn(t);
        model.Unlearn(t);
      } else {
        const size_t i = rng.UniformU32(static_cast<uint32_t>(s->NumSteps()));
        what = StrCat("backtrack ", i);
        ASSERT_TRUE(s->Backtrack(i).ok());
        shown = &s->Current();
        model.Backtrack(i);
      }
      ExpectSameVector(s->feedback(), model.feedback(),
                       StrCat("seed ", seed, ", op ", op, " (", what, ")"));
      if (HasFatalFailure()) return;
    }
  }
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
  // Interplay regression: Unlearn edits the live CONTEXT and records the
  // token on the current step, so backtracking to that step drops the
  // deletion and the replay restores the feedback state as the click left
  // it. (A replay that kept the step's deletions would restore the
  // post-unlearn state.)
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

  // ...and step 1 records the deletion, nothing more.
  EXPECT_EQ(s->Step(1).unlearned, std::vector<Token>{top});

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
