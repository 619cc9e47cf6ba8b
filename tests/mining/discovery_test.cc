#include "mining/discovery.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus::mining {
namespace {

data::Dataset SmallBx() {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 400;
  cfg.num_books = 500;
  cfg.num_ratings = 2500;
  return data::BookCrossingGenerator::Generate(cfg);
}

TEST(DiscoveryTest, LcmPathProducesGroups) {
  DiscoveryOptions opt;
  opt.algorithm = DiscoveryAlgorithm::kLcm;
  opt.min_support_fraction = 0.05;
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->groups.size(), 5u);
  EXPECT_GT(r->lcm_stats.groups_emitted, 0u);
  // Root group present.
  bool has_root = false;
  for (const UserGroup& g : r->groups.groups()) {
    has_root |= g.description().empty() && g.size() == 400;
  }
  EXPECT_TRUE(has_root);
}

TEST(DiscoveryTest, RootCanBeDisabled) {
  DiscoveryOptions opt;
  opt.min_support_fraction = 0.05;
  opt.emit_root = false;
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok());
  for (const UserGroup& g : r->groups.groups()) {
    EXPECT_FALSE(g.description().empty() && g.size() == 400);
  }
}

TEST(DiscoveryTest, AttributeSubsetRestrictsDescriptors) {
  DiscoveryOptions opt;
  opt.min_support_fraction = 0.05;
  opt.attributes = {"country"};
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok());
  auto country = SmallBx().schema().Find("country");
  for (const UserGroup& g : r->groups.groups()) {
    for (const Descriptor& d : g.description()) {
      EXPECT_EQ(d.attribute, *country);
    }
  }
}

TEST(DiscoveryTest, UnknownAttributeFails) {
  DiscoveryOptions opt;
  opt.attributes = {"no_such_attr"};
  auto r = DiscoverGroups(SmallBx(), opt);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(DiscoveryTest, EmptyDatasetFails) {
  data::Dataset empty;
  auto r = DiscoverGroups(empty, DiscoveryOptions{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(DiscoveryTest, MomriPathSelectsSets) {
  DiscoveryOptions opt;
  opt.algorithm = DiscoveryAlgorithm::kMomri;
  opt.min_support_fraction = 0.05;
  opt.momri_k = 3;
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->momri_frontier, 0u);
  EXPECT_GT(r->groups.size(), 0u);
  // MOMRI output is much smaller than full LCM output.
  DiscoveryOptions lcm_opt;
  lcm_opt.min_support_fraction = 0.05;
  auto lcm = DiscoverGroups(SmallBx(), lcm_opt);
  ASSERT_TRUE(lcm.ok());
  EXPECT_LT(r->groups.size(), lcm->groups.size());
}

TEST(DiscoveryTest, StreamPathApproximatesLcmGroups) {
  DiscoveryOptions opt;
  opt.algorithm = DiscoveryAlgorithm::kStream;
  opt.min_support_fraction = 0.10;
  opt.stream_epsilon = 0.01;
  opt.max_description = 2;
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->groups.size(), 1u);
  EXPECT_EQ(r->stream_stats.transactions, 400u);
  // Every emitted group must genuinely meet ~the support threshold
  // (epsilon-slack below 10% of 400 = 40).
  for (const UserGroup& g : r->groups.groups()) {
    if (g.description().empty()) continue;  // root
    EXPECT_GE(g.size(), 30u);
  }
}

TEST(DiscoveryTest, BirchPathLabelsClusters) {
  DiscoveryOptions opt;
  opt.algorithm = DiscoveryAlgorithm::kBirch;
  opt.min_support_fraction = 0.01;
  opt.birch_clusters = 8;
  opt.birch_threshold = 2.0;
  auto r = DiscoverGroups(SmallBx(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->groups.size(), 1u);
  EXPECT_EQ(r->birch_stats.points, 400u);
}

TEST(DiscoveryTest, MinSupportScalesWithFraction) {
  DiscoveryOptions strict;
  strict.min_support_fraction = 0.20;
  DiscoveryOptions loose;
  loose.min_support_fraction = 0.02;
  auto rs = DiscoverGroups(SmallBx(), strict);
  auto rl = DiscoverGroups(SmallBx(), loose);
  ASSERT_TRUE(rs.ok() && rl.ok());
  EXPECT_LT(rs->groups.size(), rl->groups.size());
  for (const UserGroup& g : rs->groups.groups()) {
    EXPECT_GE(g.size(), 80u);  // 20% of 400
  }
}

void ExpectStoresIdentical(const GroupStore& a, const GroupStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (GroupId g = 0; g < a.size(); ++g) {
    EXPECT_TRUE(a.group(g).description() == b.group(g).description())
        << "group " << g;
    EXPECT_TRUE(a.group(g).members() == b.group(g).members()) << "group " << g;
  }
}

TEST(DiscoveryParallelTest, ParallelMiningMatchesSerialExactly) {
  // Same groups in the same order with the same extents — the parallel
  // expansion mines per-branch buffers and folds them in item order, so a
  // snapshot preprocessed with N threads equals the single-threaded one.
  DiscoveryOptions serial;
  serial.min_support_fraction = 0.02;
  DiscoveryOptions parallel = serial;
  parallel.num_threads = 4;
  auto rs = DiscoverGroups(SmallBx(), serial);
  auto rp = DiscoverGroups(SmallBx(), parallel);
  ASSERT_TRUE(rs.ok() && rp.ok());
  EXPECT_GT(rs->groups.size(), 10u);  // non-trivial workload
  ExpectStoresIdentical(rs->groups, rp->groups);
}

TEST(DiscoveryParallelTest, TruncationIdenticalUnderParallelism) {
  // The max_groups cap must cut the same prefix regardless of thread count:
  // branch budgets bound over-mining, and the cap is re-applied during the
  // deterministic fold.
  DiscoveryOptions serial;
  serial.min_support_fraction = 0.02;
  serial.max_groups = 12;
  DiscoveryOptions parallel = serial;
  parallel.num_threads = 4;
  auto rs = DiscoverGroups(SmallBx(), serial);
  auto rp = DiscoverGroups(SmallBx(), parallel);
  ASSERT_TRUE(rs.ok() && rp.ok());
  EXPECT_TRUE(rs->lcm_stats.truncated);
  ExpectStoresIdentical(rs->groups, rp->groups);
}

TEST(BuildFeatureVectorsTest, ShapesAndNames) {
  data::Dataset ds = SmallBx();
  std::vector<std::string> names;
  auto rows = BuildFeatureVectors(ds, &names);
  ASSERT_EQ(rows.size(), 400u);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(rows[0].size(), names.size());
  // Numeric columns standardized: age mean ~0 across users.
  size_t age_col = SIZE_MAX;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "age") age_col = i;
  }
  ASSERT_NE(age_col, SIZE_MAX);
  double sum = 0;
  for (const auto& r : rows) sum += r[age_col];
  EXPECT_NEAR(sum / rows.size(), 0.0, 0.05);
}

TEST(BuildFeatureVectorsTest, OneHotColumnsAreBinary) {
  data::Dataset ds = SmallBx();
  std::vector<std::string> names;
  auto rows = BuildFeatureVectors(ds, &names);
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].find('=') == std::string::npos) continue;
    for (const auto& r : rows) {
      EXPECT_TRUE(r[i] == 0.0 || r[i] == 1.0);
    }
  }
}

TEST(LabelClusterTest, FindsHighPurityDescriptors) {
  data::Dataset ds;
  auto g = ds.schema().AddCategorical("g");
  for (int i = 0; i < 10; ++i) {
    data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, g, i < 9 ? "x" : "y");
  }
  Bitset members(10);
  members.SetAll();
  auto label = LabelCluster(ds, members, 0.8);
  ASSERT_EQ(label.size(), 1u);
  EXPECT_EQ(label[0].attribute, g);
  auto purity_too_high = LabelCluster(ds, members, 0.95);
  EXPECT_TRUE(purity_too_high.empty());
}

TEST(LabelClusterTest, EmptyMembersYieldNothing) {
  data::Dataset ds;
  ds.schema().AddCategorical("g");
  ds.users().AddUser("u");
  EXPECT_TRUE(LabelCluster(ds, Bitset(1), 0.5).empty());
}

}  // namespace
}  // namespace vexus::mining
