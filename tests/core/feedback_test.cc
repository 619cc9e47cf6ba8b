#include "core/feedback.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::core {
namespace {

// HISTORY moves each step into its list: a move must not copy the arrays.
static_assert(std::is_nothrow_move_constructible_v<FeedbackVector>);

/// 4 users with one gender attribute (m,m,f,f).
data::Dataset MakeDataset() {
  data::Dataset ds;
  data::AttributeId g = ds.schema().AddCategorical("gender");
  for (int i = 0; i < 4; ++i) {
    data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, g, i < 2 ? "m" : "f");
  }
  return ds;
}

TEST(TokenSpaceTest, LayoutUsersThenValues) {
  data::Dataset ds = MakeDataset();
  TokenSpace ts(ds);
  EXPECT_EQ(ts.num_users(), 4u);
  EXPECT_EQ(ts.num_tokens(), 6u);  // 4 users + m + f
  EXPECT_TRUE(ts.IsUserToken(3));
  EXPECT_FALSE(ts.IsUserToken(4));
  EXPECT_EQ(ts.UserToken(2), 2u);
  EXPECT_EQ(ts.ValueToken(0, 0), 4u);
  EXPECT_EQ(ts.ValueToken(0, 1), 5u);
}

TEST(TokenSpaceTest, LabelsReadable) {
  data::Dataset ds = MakeDataset();
  TokenSpace ts(ds);
  EXPECT_EQ(ts.Label(0, ds), "user:u0");
  EXPECT_EQ(ts.Label(4, ds), "gender=m");
  EXPECT_EQ(ts.Label(5, ds), "gender=f");
}

TEST(TokenSpaceTest, MultiAttributeOffsets) {
  data::Dataset ds = MakeDataset();
  data::AttributeId c = ds.schema().AddCategorical("city");
  ds.users().SetValueByName(0, c, "paris");
  TokenSpace ts(ds);
  EXPECT_EQ(ts.num_tokens(), 7u);
  EXPECT_EQ(ts.Label(ts.ValueToken(c, 0), ds), "city=paris");
}

class FeedbackVectorTest : public ::testing::Test {
 protected:
  FeedbackVectorTest() : ds_(MakeDataset()), ts_(ds_), fb_(&ts_) {}

  mining::UserGroup MalesGroup() const {
    return mining::UserGroup({{0, 0}}, Bitset::FromVector(4, {0, 1}));
  }
  mining::UserGroup FemalesGroup() const {
    return mining::UserGroup({{0, 1}}, Bitset::FromVector(4, {2, 3}));
  }

  data::Dataset ds_;
  TokenSpace ts_;
  FeedbackVector fb_;
};

TEST_F(FeedbackVectorTest, StartsEmpty) {
  EXPECT_TRUE(fb_.Empty());
  EXPECT_DOUBLE_EQ(fb_.Score(0), 0.0);
  EXPECT_TRUE(fb_.TopTokens(5).empty());
}

TEST_F(FeedbackVectorTest, LearnNormalizesToOne) {
  fb_.Learn(MalesGroup());
  double total = 0;
  for (Token t = 0; t < ts_.num_tokens(); ++t) total += fb_.Score(t);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_FALSE(fb_.Empty());
}

TEST_F(FeedbackVectorTest, LearnRewardsMembersAndDescription) {
  fb_.Learn(MalesGroup());
  EXPECT_GT(fb_.Score(ts_.UserToken(0)), 0.0);
  EXPECT_GT(fb_.Score(ts_.UserToken(1)), 0.0);
  EXPECT_GT(fb_.Score(ts_.ValueToken(0, 0)), 0.0);  // gender=m
  EXPECT_DOUBLE_EQ(fb_.Score(ts_.UserToken(2)), 0.0);
  EXPECT_DOUBLE_EQ(fb_.Score(ts_.ValueToken(0, 1)), 0.0);
}

TEST_F(FeedbackVectorTest, UnrewardedTokensDecayTowardZero) {
  fb_.Learn(MalesGroup());
  double male_score = fb_.Score(ts_.ValueToken(0, 0));
  // Repeatedly reward the females group; the male token must decay.
  for (int i = 0; i < 10; ++i) fb_.Learn(FemalesGroup());
  EXPECT_LT(fb_.Score(ts_.ValueToken(0, 0)), male_score * 0.2);
  EXPECT_GT(fb_.Score(ts_.ValueToken(0, 1)),
            fb_.Score(ts_.ValueToken(0, 0)));
}

TEST_F(FeedbackVectorTest, LearningRateControlsShift) {
  FeedbackVector slow(&ts_), fast(&ts_);
  slow.Learn(MalesGroup(), 0.1);
  fast.Learn(MalesGroup(), 0.1);
  // Now diverge: reward females with different rates.
  slow.Learn(FemalesGroup(), 0.1);
  fast.Learn(FemalesGroup(), 2.0);
  EXPECT_GT(fast.Score(ts_.ValueToken(0, 1)),
            slow.Score(ts_.ValueToken(0, 1)));
}

TEST_F(FeedbackVectorTest, UnlearnRemovesAndRenormalizes) {
  fb_.Learn(MalesGroup());
  Token male = ts_.ValueToken(0, 0);
  ASSERT_GT(fb_.Score(male), 0.0);
  fb_.Unlearn(male);
  EXPECT_DOUBLE_EQ(fb_.Score(male), 0.0);
  double total = 0;
  for (Token t = 0; t < ts_.num_tokens(); ++t) total += fb_.Score(t);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(FeedbackVectorTest, UnlearnUnknownTokenIsNoop) {
  fb_.Learn(MalesGroup());
  fb_.Unlearn(ts_.ValueToken(0, 1));  // was never rewarded
  double total = 0;
  for (Token t = 0; t < ts_.num_tokens(); ++t) total += fb_.Score(t);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(FeedbackVectorTest, UnlearnEverythingEmpties) {
  fb_.Learn(MalesGroup());
  for (Token t = 0; t < ts_.num_tokens(); ++t) fb_.Unlearn(t);
  EXPECT_TRUE(fb_.Empty());
}

TEST_F(FeedbackVectorTest, UserWeightsUniformWhenEmpty) {
  auto w = fb_.UserWeights();
  ASSERT_EQ(w.size(), 4u);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST_F(FeedbackVectorTest, UserWeightsBoostRewardedUsers) {
  fb_.Learn(MalesGroup());
  auto w = fb_.UserWeights();
  EXPECT_GT(w[0], w[2]);
  EXPECT_GT(w[1], w[3]);
}

TEST_F(FeedbackVectorTest, GroupPriorFavorsAlignedGroups) {
  EXPECT_DOUBLE_EQ(fb_.GroupPrior(MalesGroup()), 1.0);  // empty feedback
  fb_.Learn(MalesGroup());
  EXPECT_GT(fb_.GroupPrior(MalesGroup()), fb_.GroupPrior(FemalesGroup()));
  EXPECT_GT(fb_.GroupPrior(MalesGroup()), 1.0);
}

TEST_F(FeedbackVectorTest, TopTokensSortedDescending) {
  fb_.Learn(MalesGroup());
  fb_.Learn(MalesGroup());
  fb_.Learn(FemalesGroup());
  auto top = fb_.TopTokens(10);
  ASSERT_GE(top.size(), 2u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
  auto top2 = fb_.TopTokens(2);
  EXPECT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].token, top[0].token);
}

TEST_F(FeedbackVectorTest, SnapshotRestoresState) {
  fb_.Learn(MalesGroup());
  FeedbackVector snapshot = fb_;
  fb_.Learn(FemalesGroup());
  fb_.Learn(FemalesGroup());
  EXPECT_NE(fb_.Score(ts_.ValueToken(0, 1)),
            snapshot.Score(ts_.ValueToken(0, 1)));
  fb_ = snapshot;
  EXPECT_DOUBLE_EQ(fb_.Score(ts_.ValueToken(0, 1)), 0.0);
  EXPECT_GT(fb_.Score(ts_.ValueToken(0, 0)), 0.0);
}

TEST_F(FeedbackVectorTest, LearnEmptyGroupIsNoop) {
  mining::UserGroup empty({}, Bitset(4));
  fb_.Learn(empty);
  EXPECT_TRUE(fb_.Empty());
}

TEST_F(FeedbackVectorTest, LearnDegenerateEtaIsANoOpFixedPoint) {
  // Regression: an all-zero observation must never reach Normalize()'s 0/0.
  // Pre-fix, eta <= 0 crashed on a VEXUS_CHECK (a config error aborted the
  // process), and non-finite eta poisoned every score to NaN via inf/inf.
  fb_.Learn(MalesGroup());  // establish known state
  double male = fb_.Score(ts_.ValueToken(0, 0));
  ASSERT_GT(male, 0.0);

  fb_.Learn(FemalesGroup(), 0.0);
  fb_.Learn(FemalesGroup(), -1.0);
  fb_.Learn(FemalesGroup(), std::numeric_limits<double>::quiet_NaN());
  // State must be bit-for-bit untouched — degenerate updates are fixed
  // points, not merely "small".
  EXPECT_DOUBLE_EQ(fb_.Score(ts_.ValueToken(0, 0)), male);
  EXPECT_DOUBLE_EQ(fb_.Score(ts_.ValueToken(0, 1)), 0.0);
}

TEST_F(FeedbackVectorTest, LearnDegenerateEtaOnEmptyVectorStaysEmpty) {
  // Pre-fix the scariest path: an empty vector + degenerate update created
  // zero-valued entries whose sum is 0, and Normalize() divided 0/0.
  fb_.Learn(MalesGroup(), 0.0);
  fb_.Learn(MalesGroup(), -3.5);
  fb_.Learn(MalesGroup(), std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(fb_.Empty());
  for (Token t = 0; t < ts_.num_tokens(); ++t) {
    EXPECT_DOUBLE_EQ(fb_.Score(t), 0.0);
    EXPECT_FALSE(std::isnan(fb_.Score(t)));
  }
  auto w = fb_.UserWeights();
  for (double x : w) EXPECT_DOUBLE_EQ(x, 0.25);  // uniform floor intact
}

TEST_F(FeedbackVectorTest, LearnInfiniteEtaDoesNotPoisonScores) {
  // eta = +inf used to turn Normalize() into inf/inf = NaN on every token.
  fb_.Learn(MalesGroup());
  fb_.Learn(FemalesGroup(), std::numeric_limits<double>::infinity());
  double total = 0;
  for (Token t = 0; t < ts_.num_tokens(); ++t) {
    double s = fb_.Score(t);
    EXPECT_TRUE(std::isfinite(s)) << "token " << t << " = " << s;
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_F(FeedbackVectorTest, LearnSplitsMassBetweenMembersAndDescription) {
  fb_.Learn(MalesGroup());  // 2 members + 1 descriptor
  // Half the mass on the description token, half split across 2 members.
  EXPECT_NEAR(fb_.Score(ts_.ValueToken(0, 0)), 0.5, 1e-12);
  EXPECT_NEAR(fb_.Score(ts_.UserToken(0)), 0.25, 1e-12);
  EXPECT_NEAR(fb_.Score(ts_.UserToken(1)), 0.25, 1e-12);
}

TEST_F(FeedbackVectorTest, LearnDescriptionlessGroupGivesAllToMembers) {
  mining::UserGroup cluster({}, Bitset::FromVector(4, {0, 1}));
  fb_.Learn(cluster);
  EXPECT_NEAR(fb_.Score(ts_.UserToken(0)), 0.5, 1e-12);
  EXPECT_NEAR(fb_.Score(ts_.UserToken(1)), 0.5, 1e-12);
}

TEST_F(FeedbackVectorTest, DemographicMassFlowsIntoCarrierWeights) {
  // Reward only the description token side by learning a group, then check
  // that carriers of "gender=m" outweigh non-carriers even beyond their
  // direct member rewards.
  fb_.Learn(MalesGroup());
  auto w = fb_.UserWeights();
  // Users 0,1 are male: direct member mass + spread of the gender=m token.
  // The male token holds 0.5, spread over its 2 carriers -> +0.25 each.
  double expected_member = 0.25;          // direct user-token mass
  double expected_spread = 0.5 / 2.0;     // value-token mass per carrier
  double floor = 0.25;                    // 1 / num_users
  EXPECT_NEAR(w[0], floor + expected_member + expected_spread, 1e-12);
  EXPECT_NEAR(w[2], floor, 1e-12);  // female, unrewarded
}

TEST(FeedbackUnlearnWeights, UnlearningValueTokenDropsNonMemberCarriers) {
  // 6 users, males {0,1,2}: a clicked group described gender=m whose
  // members are only {0,1}. User 2 benefits solely from the gender=m
  // token's spread mass — unlearning the token must drop them back to the
  // uniform floor while the directly-rewarded members keep their premium.
  data::Dataset ds;
  data::AttributeId g = ds.schema().AddCategorical("gender");
  for (int i = 0; i < 6; ++i) {
    data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, g, i < 3 ? "m" : "f");
  }
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  fb.Learn(mining::UserGroup({{g, 0}}, Bitset::FromVector(6, {0, 1})));

  double floor = 1.0 / 6.0;
  auto before = fb.UserWeights();
  EXPECT_GT(before[2], floor + 1e-12);            // carrier, non-member
  EXPECT_NEAR(before[3], floor, 1e-12);           // female

  fb.Unlearn(ts.ValueToken(g, 0));
  auto after = fb.UserWeights();
  EXPECT_NEAR(after[2], floor, 1e-12);            // spread mass gone
  EXPECT_GT(after[0], after[2]);                  // members keep premium
  EXPECT_LT(after[2] - after[3], before[2] - before[3]);
}

TEST(FeedbackTopTokensTest, TiedScoresMatchTheFullSort) {
  // Learned groups spread one equal share over all their members, so most
  // scores tie. TopTokens must return exactly the full sort's prefix under
  // (score descending, token ascending) for every k.
  data::Dataset ds;
  data::AttributeId g = ds.schema().AddCategorical("gender");
  data::AttributeId c = ds.schema().AddCategorical("city");
  constexpr uint32_t kUsers = 40;
  for (uint32_t i = 0; i < kUsers; ++i) {
    data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, g, i % 2 == 0 ? "m" : "f");
    ds.users().SetValueByName(u, c, i % 3 == 0 ? "x" : "y");
  }
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  std::vector<uint32_t> evens, thirds, all;
  for (uint32_t u = 0; u < kUsers; ++u) {
    if (u % 2 == 0) evens.push_back(u);
    if (u % 3 == 0) thirds.push_back(u);
    all.push_back(u);
  }
  fb.Learn(mining::UserGroup({{g, 0}}, Bitset::FromVector(kUsers, evens)));
  fb.Learn(mining::UserGroup({{c, 0}}, Bitset::FromVector(kUsers, thirds)));
  fb.Learn(mining::UserGroup({}, Bitset::FromVector(kUsers, all)));

  std::vector<FeedbackVector::TokenScore> full;
  for (Token t = 0; t < ts.num_tokens(); ++t) {
    if (fb.Score(t) > 0) full.push_back({t, fb.Score(t)});
  }
  ASSERT_EQ(full.size(), fb.nonzero_count());
  std::sort(full.begin(), full.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.token < b.token;
  });

  for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{17},
                   full.size(), full.size() + 5}) {
    auto top = fb.TopTokens(k);
    ASSERT_EQ(top.size(), std::min(k, full.size())) << "k=" << k;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].token, full[i].token) << "k=" << k << " rank " << i;
      EXPECT_EQ(top[i].score, full[i].score) << "k=" << k << " rank " << i;
    }
  }
}

TEST(TokenSpaceCarrierTest, CountsAndDecode) {
  data::Dataset ds = MakeDataset();
  TokenSpace ts(ds);
  Token m = ts.ValueToken(0, 0);
  Token f = ts.ValueToken(0, 1);
  EXPECT_EQ(ts.CarrierCount(m), 2u);
  EXPECT_EQ(ts.CarrierCount(f), 2u);
  EXPECT_EQ(ts.CarrierCount(ts.UserToken(0)), 0u);  // user tokens: none
  auto [attr, value] = ts.DecodeValueToken(m);
  EXPECT_EQ(attr, 0u);
  EXPECT_EQ(value, 0u);
  auto [attr2, value2] = ts.DecodeValueToken(f);
  EXPECT_EQ(value2, 1u);
}

TEST(TokenSpaceCarrierTest, NullValuesAreNotCarriers) {
  data::Dataset ds;
  auto g = ds.schema().AddCategorical("g");
  ds.users().AddUser("u0");  // stays null
  data::UserId u1 = ds.users().AddUser("u1");
  ds.users().SetValueByName(u1, g, "x");
  TokenSpace ts(ds);
  EXPECT_EQ(ts.CarrierCount(ts.ValueToken(g, 0)), 1u);
}

}  // namespace
}  // namespace vexus::core
