#include "mining/apriori.h"

#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "mining/descriptor_catalog.h"
#include "mining/lcm.h"

namespace vexus::mining {
namespace {

data::Dataset RandomDataset(size_t n_users, size_t n_attrs, size_t n_values,
                            uint64_t seed) {
  data::Dataset ds;
  vexus::Rng rng(seed);
  for (size_t a = 0; a < n_attrs; ++a) {
    ds.schema().AddCategorical(StrCat("a", a));
  }
  for (size_t u = 0; u < n_users; ++u) {
    data::UserId uid = ds.users().AddUser(StrCat("u", u));
    for (size_t a = 0; a < n_attrs; ++a) {
      ds.users().SetValueByName(
          uid, static_cast<data::AttributeId>(a),
          StrCat("v", rng.UniformU32(static_cast<uint32_t>(n_values))));
    }
  }
  return ds;
}

/// Brute-force count of frequent itemsets (any subset, not just closed).
size_t BruteForceFrequentCount(const DescriptorCatalog& cat,
                               size_t min_support, size_t max_desc) {
  size_t count = 0;
  size_t n = cat.size();
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    size_t bits = static_cast<size_t>(__builtin_popcountll(mask));
    if (bits > max_desc) continue;
    Bitset extent(cat.num_users());
    extent.SetAll();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) extent &= cat.UserSet(i);
    }
    if (extent.Count() >= min_support) ++count;
  }
  return count;
}

TEST(AprioriTest, CountsMatchBruteForce) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    data::Dataset ds = RandomDataset(40, 3, 3, seed);
    auto cat = DescriptorCatalog::Build(ds);
    ASSERT_LE(cat.size(), 12u);
    AprioriMiner::Config cfg;
    cfg.min_support = 3;
    cfg.max_description = 3;
    AprioriMiner miner(&cat, cfg);
    auto stats = miner.Mine(nullptr);
    EXPECT_EQ(stats.frequent_itemsets,
              BruteForceFrequentCount(cat, 3, 3))
        << "seed " << seed;
  }
}

TEST(AprioriTest, EmitsGroupsWithCorrectExtents) {
  data::Dataset ds = RandomDataset(50, 3, 2, 9);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(50);
  AprioriMiner::Config cfg;
  cfg.min_support = 5;
  AprioriMiner miner(&cat, cfg);
  auto stats = miner.Mine(&store);
  EXPECT_EQ(stats.groups_emitted, store.size());
  for (const UserGroup& g : store.groups()) {
    EXPECT_GE(g.size(), 5u);
    Bitset expect(50);
    expect.SetAll();
    for (const Descriptor& d : g.description()) {
      auto id = cat.Find(d.attribute, d.value);
      ASSERT_TRUE(id.has_value());
      expect &= cat.UserSet(*id);
    }
    EXPECT_TRUE(expect == g.members());
  }
}

TEST(AprioriTest, FindsAtLeastAsManyItemsetsAsLcmFindsClosed) {
  // The closed sets are a subset of all frequent sets (E6's core claim).
  data::Dataset ds = RandomDataset(60, 4, 2, 21);
  auto cat = DescriptorCatalog::Build(ds);

  AprioriMiner::Config acfg;
  acfg.min_support = 3;
  acfg.max_description = 4;
  auto astats = AprioriMiner(&cat, acfg).Mine(nullptr);

  GroupStore store(60);
  LcmMiner::Config lcfg;
  lcfg.min_support = 3;
  lcfg.max_description = 4;
  lcfg.emit_root = false;
  auto lstats = LcmMiner(&cat, lcfg).Mine(&store);

  EXPECT_GE(astats.frequent_itemsets, lstats.groups_emitted);
  EXPECT_GT(lstats.groups_emitted, 0u);
}

TEST(AprioriTest, MaxGroupsCapsEmissionNotCounting) {
  data::Dataset ds = RandomDataset(60, 4, 2, 25);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(60);
  AprioriMiner::Config cfg;
  cfg.min_support = 2;
  cfg.max_groups = 3;
  auto stats = AprioriMiner(&cat, cfg).Mine(&store);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.frequent_itemsets, 3u);  // counting continued
}

TEST(AprioriTest, MaxDescriptionOneKeepsSingletonsOnly) {
  data::Dataset ds = RandomDataset(30, 3, 2, 27);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(30);
  AprioriMiner::Config cfg;
  cfg.min_support = 1;
  cfg.max_description = 1;
  auto stats = AprioriMiner(&cat, cfg).Mine(&store);
  EXPECT_EQ(stats.frequent_itemsets, cat.size());
  for (const UserGroup& g : store.groups()) {
    EXPECT_EQ(g.description().size(), 1u);
  }
}

TEST(AprioriTest, EmptyCatalogYieldsNothing) {
  data::Dataset ds;
  ds.users().AddUser("u");
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(1);
  AprioriMiner::Config cfg;
  auto stats = AprioriMiner(&cat, cfg).Mine(&store);
  EXPECT_EQ(stats.frequent_itemsets, 0u);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace vexus::mining
