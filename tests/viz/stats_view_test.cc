#include "viz/stats_view.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"

namespace vexus::viz {
namespace {

/// 8 users: gender alternates m/f; score = index; user i in the "members"
/// set iff i < 6.
struct World {
  World() {
    gender = ds.schema().AddCategorical("gender");
    score = ds.schema().AddNumeric("score");
    for (int i = 0; i < 8; ++i) {
      data::UserId u = ds.users().AddUser(StrCat("u", i));
      ds.users().SetValueByName(u, gender, i % 2 == 0 ? "m" : "f");
      ds.users().SetNumeric(u, score, i);
    }
    members = Bitset(8);
    for (int i = 0; i < 6; ++i) members.Set(i);
  }
  data::Dataset ds;
  data::AttributeId gender, score;
  Bitset members;
};

TEST(StatsViewTest, BuildsOverMembersOnly) {
  World w;
  StatsView stats(&w.ds, w.members);
  EXPECT_EQ(stats.num_members(), 6u);
  EXPECT_EQ(stats.SelectedCount(), 6u);
}

TEST(StatsViewTest, DistributionsCoverAllAttributes) {
  World w;
  StatsView stats(&w.ds, w.members);
  auto dists = stats.Distributions();
  ASSERT_EQ(dists.size(), 2u);
  EXPECT_EQ(dists[0].attribute, "gender");
  EXPECT_EQ(dists[1].attribute, "score");
}

TEST(StatsViewTest, CategoricalDistributionCounts) {
  World w;
  StatsView stats(&w.ds, w.members);
  auto d = stats.DistributionOf("gender");
  ASSERT_TRUE(d.ok());
  // Members 0..5: m at 0,2,4 and f at 1,3,5.
  ASSERT_EQ(d->labels.size(), 2u);
  size_t total = 0;
  for (size_t c : d->counts) total += c;
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(d->counts[0], 3u);
  EXPECT_EQ(d->counts[1], 3u);
}

TEST(StatsViewTest, BrushConstrains) {
  World w;
  StatsView stats(&w.ds, w.members);
  ASSERT_TRUE(stats.Brush("gender", {"f"}).ok());
  EXPECT_EQ(stats.SelectedCount(), 3u);
  auto users = stats.SelectedUsers();
  EXPECT_EQ(users, (std::vector<std::string>{"u1", "u3", "u5"}));
}

TEST(StatsViewTest, BrushCoordinatesOtherHistograms) {
  World w;
  StatsView stats(&w.ds, w.members);
  ASSERT_TRUE(stats.Brush("gender", {"f"}).ok());
  // The score histogram now only counts f-members (1,3,5).
  auto d = stats.DistributionOf("score");
  ASSERT_TRUE(d.ok());
  size_t total = 0;
  for (size_t c : d->counts) total += c;
  EXPECT_EQ(total, 3u);
  // But the gender histogram itself still shows both bars (own-brush
  // exemption).
  auto g = stats.DistributionOf("gender");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->counts[0] + g->counts[1], 6u);
}

TEST(StatsViewTest, BrushRangeOnNumeric) {
  World w;
  StatsView stats(&w.ds, w.members);
  // 5 is the observed maximum among members, so [2, 5] is closed at the
  // top (the histogram-edge rule) and keeps user 5.
  ASSERT_TRUE(stats.BrushRange("score", 2, 5).ok());
  EXPECT_EQ(stats.SelectedCount(), 4u);  // scores 2,3,4,5
  EXPECT_EQ(stats.SelectedUserIds(),
            (std::vector<data::UserId>{2, 3, 4, 5}));
  // An interior upper edge stays right-open: [2, 4.5) excludes 5.
  ASSERT_TRUE(stats.BrushRange("score", 2, 4.5).ok());
  EXPECT_EQ(stats.SelectedUserIds(), (std::vector<data::UserId>{2, 3, 4}));
}

TEST(StatsViewTest, CombinedBrushes) {
  World w;
  StatsView stats(&w.ds, w.members);
  // The paper's workflow: brush gender=female AND high activity.
  ASSERT_TRUE(stats.Brush("gender", {"f"}).ok());
  ASSERT_TRUE(stats.BrushRange("score", 3, 10).ok());
  EXPECT_EQ(stats.SelectedUserIds(), (std::vector<data::UserId>{3, 5}));
}

TEST(StatsViewTest, ClearBrushRestores) {
  World w;
  StatsView stats(&w.ds, w.members);
  ASSERT_TRUE(stats.Brush("gender", {"m"}).ok());
  EXPECT_EQ(stats.SelectedCount(), 3u);
  ASSERT_TRUE(stats.ClearBrush("gender").ok());
  EXPECT_EQ(stats.SelectedCount(), 6u);
}

TEST(StatsViewTest, ErrorsOnBadNames) {
  World w;
  StatsView stats(&w.ds, w.members);
  EXPECT_TRUE(stats.Brush("nope", {"x"}).IsNotFound());
  EXPECT_TRUE(stats.Brush("gender", {"zz"}).IsNotFound());
  EXPECT_TRUE(stats.Brush("score", {"1"}).IsInvalidArgument());
  EXPECT_TRUE(stats.BrushRange("gender", 0, 1).IsInvalidArgument());
  EXPECT_FALSE(stats.DistributionOf("ghost").ok());
}

TEST(StatsViewTest, SelectedUsersLimit) {
  World w;
  StatsView stats(&w.ds, w.members);
  EXPECT_EQ(stats.SelectedUsers(2).size(), 2u);
}

TEST(StatsViewTest, EmptyMemberSet) {
  World w;
  StatsView stats(&w.ds, Bitset(8));
  EXPECT_EQ(stats.num_members(), 0u);
  EXPECT_EQ(stats.SelectedCount(), 0u);
  EXPECT_TRUE(stats.SelectedUsers().empty());
  auto d = stats.DistributionOf("gender");
  ASSERT_TRUE(d.ok());
  for (size_t c : d->counts) EXPECT_EQ(c, 0u);
}

TEST(StatsViewTest, BrushFullDomainKeepsMaxValuedMembers) {
  // Satellite regression: the UI hands BrushRange the histogram's full
  // domain [min, max] when the explorer sweeps across the whole chart.
  // Strict right-openness silently dropped every member sitting exactly on
  // the max — the last bin showed them, the selected-users table lost them.
  World w;
  StatsView stats(&w.ds, w.members);  // member scores 0..5
  ASSERT_TRUE(stats.BrushRange("score", 0, 5).ok());
  EXPECT_EQ(stats.SelectedCount(), 6u);  // pre-fix: 5 (score=5 dropped)
  EXPECT_EQ(stats.SelectedUserIds(),
            (std::vector<data::UserId>{0, 1, 2, 3, 4, 5}));
  // A brush whose top edge *is* the max but whose bottom excludes some.
  ASSERT_TRUE(stats.BrushRange("score", 3, 5).ok());
  EXPECT_EQ(stats.SelectedUserIds(), (std::vector<data::UserId>{3, 4, 5}));
}

TEST(StatsViewTest, InteriorBrushStaysRightOpen) {
  // The closed-at-the-top rule applies only at the observed maximum; an
  // interior upper edge keeps exact right-open semantics.
  World w;
  StatsView stats(&w.ds, w.members);
  ASSERT_TRUE(stats.BrushRange("score", 1, 3).ok());
  EXPECT_EQ(stats.SelectedUserIds(), (std::vector<data::UserId>{1, 2}));
}

TEST(StatsViewTest, FullDomainBrushPropertyOverRandomDomains) {
  // Property, over random numeric columns: (a) the histogram's counts sum
  // to the member count (no value, max included, falls off the last bin),
  // and (b) brushing [observed min, observed max] selects every member.
  vexus::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    data::Dataset ds;
    data::AttributeId score = ds.schema().AddNumeric("score");
    size_t n = 3 + rng.UniformU32(40);
    double lo_domain = rng.UniformDouble(-1000, 1000);
    double width = rng.UniformDouble(0.001, 500);
    std::vector<double> vals(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = lo_domain + rng.UniformDouble(0, width);
      data::UserId u = ds.users().AddUser(StrCat("u", i));
      ds.users().SetNumeric(u, score, vals[i]);
    }
    // Force at least one user to sit exactly on the maximum (the bug's
    // trigger); duplicated maxima must all survive too.
    double vmax = *std::max_element(vals.begin(), vals.end());
    double vmin = *std::min_element(vals.begin(), vals.end());
    Bitset members(n);
    for (size_t i = 0; i < n; ++i) members.Set(i);

    StatsView stats(&ds, members);
    auto d = stats.DistributionOf("score");
    ASSERT_TRUE(d.ok());
    size_t total = std::accumulate(d->counts.begin(), d->counts.end(),
                                   static_cast<size_t>(0));
    EXPECT_EQ(total, n) << "trial " << trial << " lost histogram mass";

    ASSERT_TRUE(stats.BrushRange("score", vmin, vmax).ok());
    EXPECT_EQ(stats.SelectedCount(), n)
        << "trial " << trial << " [" << vmin << "," << vmax
        << "] dropped max-valued members";
    ASSERT_TRUE(stats.ClearBrush("score").ok());
    EXPECT_EQ(stats.SelectedCount(), n);
  }
}

TEST(StatsViewTest, NumericLabelsDescribeBins) {
  World w;
  StatsView stats(&w.ds, w.members);
  auto d = stats.DistributionOf("score");
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->labels.empty());
  EXPECT_EQ(d->labels[0].front(), '[');
  EXPECT_NE(d->labels[0].find(','), std::string::npos);
}

}  // namespace
}  // namespace vexus::viz
