// FeedbackVector against the hash-map oracle it replaced (feedback_oracle.h),
// over seeded random scripts of Learn, Unlearn, HISTORY copies and
// backtracks, plus the bit-identity a replay of the same clicks relies on.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/feedback.h"
#include "feedback_oracle.h"

namespace vexus::core {
namespace {

constexpr uint32_t kUsers = 300;  // not a whole number of bitset words

/// Three attributes with 2, 3 and 5 values; every seventh user has no
/// value for the second one.
data::Dataset MakeWorld() {
  data::Dataset ds;
  const data::AttributeId gender = ds.schema().AddCategorical("gender");
  const data::AttributeId city = ds.schema().AddCategorical("city");
  const data::AttributeId topic = ds.schema().AddCategorical("topic");
  for (uint32_t i = 0; i < kUsers; ++i) {
    const data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, gender, i % 2 == 0 ? "m" : "f");
    if (i % 7 != 0) ds.users().SetValueByName(u, city, StrCat("c", i % 3));
    ds.users().SetValueByName(u, topic, StrCat("t", (i * 7) % 5));
  }
  return ds;
}

/// Random groups of several densities. Descriptions are drawn unsorted and
/// may repeat a descriptor; a few groups have no description or no members.
std::vector<mining::UserGroup> MakeGroups(const data::Dataset& ds,
                                          std::mt19937& rng) {
  std::vector<mining::UserGroup> groups;
  const double densities[] = {0.0, 0.02, 0.1, 0.4, 0.9};
  for (int i = 0; i < 40; ++i) {
    const double density = densities[i % 5];
    std::bernoulli_distribution in(density);
    Bitset members(kUsers);
    for (uint32_t u = 0; u < kUsers; ++u) {
      if (in(rng)) members.Set(u);
    }
    std::vector<mining::Descriptor> desc;
    const int n_desc = static_cast<int>(rng() % 4);
    for (int d = 0; d < n_desc || (density == 0.0 && desc.empty()); ++d) {
      const auto a =
          static_cast<data::AttributeId>(rng() % ds.schema().num_attributes());
      const auto values = ds.schema().attribute(a).values().size();
      desc.push_back({a, static_cast<data::ValueId>(rng() % values)});
    }
    groups.emplace_back(std::move(desc), std::move(members));
  }
  return groups;
}

/// Every observable value of a vector, in a fixed order: the score of each
/// token, the prior of each group, each user's weight, the ranked tokens.
std::vector<double> Fingerprint(const FeedbackVector& fb,
                                const TokenSpace& ts,
                                const std::vector<mining::UserGroup>& groups) {
  std::vector<double> out;
  for (Token t = 0; t < ts.num_tokens(); ++t) out.push_back(fb.Score(t));
  for (const mining::UserGroup& g : groups) out.push_back(fb.GroupPrior(g));
  for (double w : fb.UserWeights()) out.push_back(w);
  for (const auto& top : fb.TopTokens(fb.nonzero_count())) {
    out.push_back(static_cast<double>(top.token));
    out.push_back(top.score);
  }
  return out;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectNearRel(double got, double want, const std::string& what) {
  EXPECT_LE(std::fabs(got - want), 1e-12 * std::fabs(want)) << what;
}

/// Token set, TopTokens order, scores, priors and weights against the
/// oracle, to 1e-12 relative.
void ExpectMatchesOracle(const FeedbackVector& fb,
                         const MapFeedbackOracle& oracle,
                         const TokenSpace& ts,
                         const std::vector<mining::UserGroup>& groups,
                         const std::string& where) {
  ASSERT_EQ(fb.nonzero_count(), oracle.nonzero_count()) << where;
  ASSERT_EQ(fb.Empty(), oracle.nonzero_count() == 0) << where;
  for (Token t = 0; t < ts.num_tokens(); ++t) {
    ExpectNearRel(fb.Score(t), oracle.Score(t),
                  StrCat(where, " score of token ", t));
  }
  // The same tokens in the same order, except that tokens whose scores tie
  // to rounding may trade places: the two sum in different orders, so one
  // can break an exact tie of the other by a last bit.
  const auto top = fb.TopTokens(fb.nonzero_count());
  const auto want = oracle.Ranked();
  ASSERT_EQ(top.size(), want.size()) << where;
  std::vector<Token> got_set, want_set;
  for (size_t i = 0; i < top.size(); ++i) {
    got_set.push_back(top[i].token);
    want_set.push_back(want[i].token);
    ExpectNearRel(oracle.Score(top[i].token), want[i].score,
                  StrCat(where, " rank ", i));
  }
  std::sort(got_set.begin(), got_set.end());
  std::sort(want_set.begin(), want_set.end());
  ASSERT_EQ(got_set, want_set) << where;
  for (size_t i = 0; i < groups.size(); ++i) {
    ExpectNearRel(fb.GroupPrior(groups[i]), oracle.GroupPrior(groups[i]),
                  StrCat(where, " prior of group ", i));
  }
  const auto w = fb.UserWeights();
  const auto w_want = oracle.UserWeights();
  ASSERT_EQ(w.size(), w_want.size());
  for (size_t u = 0; u < w.size(); ++u) {
    ExpectNearRel(w[u], w_want[u], StrCat(where, " weight of user ", u));
  }
}

/// One script operation, as a replay would apply it to a fresh vector.
struct Op {
  bool learn;
  size_t group;  // learn
  double eta;    // learn
  Token token;   // unlearn
};

void Apply(const Op& op, const std::vector<mining::UserGroup>& groups,
           FeedbackVector& fb) {
  if (op.learn) {
    fb.Learn(groups[op.group], op.eta);
  } else {
    fb.Unlearn(op.token);
  }
}

/// A HISTORY entry: the vector after its step, the oracle beside it, and
/// the operations that led there from an empty vector.
struct Snapshot {
  FeedbackVector fb;
  MapFeedbackOracle oracle;
  std::vector<Op> script;
};

class FeedbackPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FeedbackPropertyTest, RandomScriptsMatchTheOracleAndReplayBitForBit) {
  const data::Dataset ds = MakeWorld();
  const TokenSpace ts(ds);
  std::mt19937 rng(GetParam());
  const std::vector<mining::UserGroup> groups = MakeGroups(ds, rng);
  const double etas[] = {0.1, 0.5, 1.0, 2.0};

  std::vector<Snapshot> history;
  history.push_back({FeedbackVector(&ts), MapFeedbackOracle(&ts), {}});
  for (int step = 0; step < 60; ++step) {
    const std::string where = StrCat("seed ", GetParam(), " step ", step);
    const uint32_t roll = rng() % 10;
    if (roll < 7) {
      // A click, as a session makes it: copy the last snapshot, learn
      // into the copy, push the copy.
      Snapshot next = history.back();
      const Op op{true, rng() % groups.size(), etas[rng() % 4], 0};
      Apply(op, groups, next.fb);
      next.oracle.Learn(groups[op.group], op.eta);
      next.script.push_back(op);
      history.push_back(std::move(next));
    } else if (roll < 9) {
      // Unlearn a scored token most of the time, else any token. A session
      // edits a copy of its live vector.
      Snapshot edited = history.back();
      Token t = static_cast<Token>(rng() % ts.num_tokens());
      const auto ranked = edited.oracle.Ranked();
      if (!ranked.empty() && rng() % 4 != 0) {
        t = ranked[rng() % ranked.size()].token;
      }
      const Op op{false, 0, 0, t};
      Apply(op, groups, edited.fb);
      edited.oracle.Unlearn(t);
      edited.script.push_back(op);
      history.back() = std::move(edited);
    } else {
      // Backtrack: drop the steps after a random earlier one.
      history.erase(history.begin() + 1 + rng() % history.size(),
                    history.end());
    }
    const Snapshot& live = history.back();
    ExpectMatchesOracle(live.fb, live.oracle, ts, groups, where);

    // The same operations applied to one vector in sequence, as the e2e
    // replay does, give the same bits as the chain of HISTORY copies.
    FeedbackVector replay(&ts);
    for (const Op& op : live.script) Apply(op, groups, replay);
    ASSERT_TRUE(BitIdentical(Fingerprint(replay, ts, groups),
                             Fingerprint(live.fb, ts, groups)))
        << where;
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedbackPropertyTest,
                         ::testing::Range(uint32_t{1}, uint32_t{21}));

TEST(FeedbackMergeTest, UnsortedAndRepeatedDescriptionMerges) {
  const data::Dataset ds = MakeWorld();
  const TokenSpace ts(ds);
  // Descriptors out of order, one of them twice, over users that already
  // hold mass and users that do not.
  const mining::UserGroup first(
      {{0, 0}}, Bitset::FromVector(kUsers, {1, 2, 64, 65, 299}));
  const mining::UserGroup second(
      {{2, 3}, {0, 1}, {2, 3}, {1, 0}},
      Bitset::FromVector(kUsers, {0, 2, 63, 64, 200}));
  FeedbackVector fb(&ts);
  MapFeedbackOracle oracle(&ts);
  for (const mining::UserGroup* g : {&first, &second, &first}) {
    fb.Learn(*g);
    oracle.Learn(*g);
    ExpectMatchesOracle(fb, oracle, ts, {first, second}, "merge");
  }
  // Once after `second`: users {1, 65, 299, 0, 63, 200}, {2, 64} shared,
  // and the value tokens gender=m, gender=f, city=c0, topic=t3.
  EXPECT_EQ(fb.nonzero_count(), 8u + 4u);
  const double desc = fb.Score(ts.ValueToken(2, 3));
  EXPECT_GT(desc, 0.0);
  EXPECT_EQ(fb.Score(ts.ValueToken(1, 0)), desc);
  EXPECT_EQ(fb.Score(ts.ValueToken(0, 1)), desc);
}

}  // namespace
}  // namespace vexus::core
