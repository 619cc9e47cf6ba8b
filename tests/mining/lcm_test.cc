#include "mining/lcm.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "mining/descriptor_catalog.h"

namespace vexus::mining {
namespace {

/// Random categorical dataset: n users, each attribute uniformly valued.
data::Dataset RandomDataset(size_t n_users, size_t n_attrs, size_t n_values,
                            uint64_t seed) {
  data::Dataset ds;
  vexus::Rng rng(seed);
  std::vector<data::AttributeId> attrs;
  for (size_t a = 0; a < n_attrs; ++a) {
    attrs.push_back(ds.schema().AddCategorical(StrCat("a", a)));
  }
  for (size_t u = 0; u < n_users; ++u) {
    data::UserId uid = ds.users().AddUser(StrCat("u", u));
    for (data::AttributeId a : attrs) {
      ds.users().SetValueByName(
          uid, a,
          StrCat("v", rng.UniformU32(static_cast<uint32_t>(n_values))));
    }
  }
  return ds;
}

/// Brute force: enumerate all descriptor subsets (n small), keep frequent
/// ones, and collect the distinct extents with their closures.
std::set<std::vector<uint32_t>> BruteForceClosedExtents(
    const DescriptorCatalog& cat, size_t min_support, size_t max_desc) {
  std::set<std::vector<uint32_t>> extents;
  size_t n = cat.size();
  // The empty set's extent (all users) counts when some closure equals it —
  // LCM's root. Include it if it is frequent.
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    Bitset extent(cat.num_users());
    extent.SetAll();
    size_t bits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) {
        extent &= cat.UserSet(i);
        ++bits;
      }
    }
    if (bits > max_desc) continue;
    if (extent.Count() < min_support) continue;
    // The closure of this itemset — if it exceeds max_desc, LCM (by design)
    // does not emit it.
    size_t closure_size = 0;
    for (size_t i = 0; i < n; ++i) {
      if (extent.IsSubsetOf(cat.UserSet(i))) ++closure_size;
    }
    if (closure_size > max_desc) continue;
    extents.insert(extent.ToVector());
  }
  return extents;
}

std::set<std::vector<uint32_t>> StoreExtents(const GroupStore& store) {
  std::set<std::vector<uint32_t>> extents;
  for (const UserGroup& g : store.groups()) {
    extents.insert(g.members().ToVector());
  }
  return extents;
}

TEST(LcmTest, TinyHandExample) {
  // Users: 0:{A,B} 1:{A,B} 2:{A} — descriptors A(support 3), B(support 2).
  data::Dataset ds;
  auto x = ds.schema().AddCategorical("x");
  auto y = ds.schema().AddCategorical("y");
  for (int i = 0; i < 3; ++i) ds.users().AddUser(StrCat("u", i));
  ds.users().SetValueByName(0, x, "A");
  ds.users().SetValueByName(1, x, "A");
  ds.users().SetValueByName(2, x, "A");
  ds.users().SetValueByName(0, y, "B");
  ds.users().SetValueByName(1, y, "B");

  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(3);
  LcmMiner::Config cfg;
  cfg.min_support = 1;
  cfg.max_description = 4;
  cfg.emit_root = true;
  LcmMiner miner(&cat, cfg);
  auto stats = miner.Mine(&store);

  // Closed sets: {A} (extent 012, which is also the root closure) and
  // {A,B} (extent 01).
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(stats.groups_emitted, 2u);
  auto extents = StoreExtents(store);
  EXPECT_TRUE(extents.count({0, 1, 2}));
  EXPECT_TRUE(extents.count({0, 1}));
}

TEST(LcmTest, EveryEmittedGroupIsClosed) {
  data::Dataset ds = RandomDataset(60, 4, 3, 11);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(60);
  LcmMiner::Config cfg;
  cfg.min_support = 3;
  cfg.max_description = 4;
  LcmMiner miner(&cat, cfg);
  miner.Mine(&store);
  ASSERT_GT(store.size(), 0u);
  for (const UserGroup& g : store.groups()) {
    // Closedness: every descriptor containing the whole extent must be in
    // the description.
    for (DescriptorId d = 0; d < cat.size(); ++d) {
      bool contains = g.members().IsSubsetOf(cat.UserSet(d));
      bool in_desc = std::find(g.description().begin(), g.description().end(),
                               cat.descriptor(d)) != g.description().end();
      EXPECT_EQ(contains, in_desc)
          << "group extent size " << g.size() << " descriptor " << d;
    }
    // Extent correctness: members == intersection of descriptor sets.
    Bitset expect(ds.num_users());
    expect.SetAll();
    for (const Descriptor& d : g.description()) {
      auto id = cat.Find(d.attribute, d.value);
      ASSERT_TRUE(id.has_value());
      expect &= cat.UserSet(*id);
    }
    EXPECT_TRUE(expect == g.members());
  }
}

TEST(LcmTest, RespectsMinSupport) {
  data::Dataset ds = RandomDataset(100, 3, 4, 13);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(100);
  LcmMiner::Config cfg;
  cfg.min_support = 10;
  LcmMiner miner(&cat, cfg);
  miner.Mine(&store);
  for (const UserGroup& g : store.groups()) {
    EXPECT_GE(g.size(), 10u);
  }
}

TEST(LcmTest, RespectsMaxDescription) {
  data::Dataset ds = RandomDataset(80, 5, 2, 17);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(80);
  LcmMiner::Config cfg;
  cfg.min_support = 2;
  cfg.max_description = 2;
  LcmMiner miner(&cat, cfg);
  miner.Mine(&store);
  for (const UserGroup& g : store.groups()) {
    EXPECT_LE(g.description().size(), 2u);
  }
}

TEST(LcmTest, MaxGroupsTruncates) {
  data::Dataset ds = RandomDataset(100, 5, 3, 19);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(100);
  LcmMiner::Config cfg;
  cfg.min_support = 2;
  cfg.max_groups = 5;
  LcmMiner miner(&cat, cfg);
  auto stats = miner.Mine(&store);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(store.size(), 5u);
}

TEST(LcmTest, NoDuplicateExtents) {
  data::Dataset ds = RandomDataset(70, 4, 3, 23);
  auto cat = DescriptorCatalog::Build(ds);
  GroupStore store(70);
  LcmMiner::Config cfg;
  cfg.min_support = 2;
  LcmMiner miner(&cat, cfg);
  miner.Mine(&store);
  std::set<uint64_t> hashes;
  for (const UserGroup& g : store.groups()) {
    EXPECT_TRUE(hashes.insert(g.members().Hash()).second)
        << "duplicate extent emitted";
  }
}

TEST(LcmTest, EmitRootToggle) {
  data::Dataset ds = RandomDataset(30, 2, 2, 29);
  auto cat = DescriptorCatalog::Build(ds);
  LcmMiner::Config with_root;
  with_root.min_support = 1;
  with_root.emit_root = true;
  LcmMiner::Config no_root = with_root;
  no_root.emit_root = false;

  GroupStore a(30), b(30);
  LcmMiner(&cat, with_root).Mine(&a);
  LcmMiner(&cat, no_root).Mine(&b);
  // The random data almost surely has no descriptor shared by all users, so
  // the root closure is empty and only emit_root distinguishes the runs.
  EXPECT_EQ(a.size(), b.size() + 1);
}

// Exhaustive equivalence against brute force across random instances.
class LcmBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, uint64_t>> {};

TEST_P(LcmBruteForceTest, MatchesBruteForceClosedSets) {
  auto [n_users, n_attrs, n_values, seed] = GetParam();
  data::Dataset ds = RandomDataset(n_users, n_attrs, n_values, seed);
  auto cat = DescriptorCatalog::Build(ds);
  ASSERT_LE(cat.size(), 16u) << "brute force would explode";

  const size_t min_support = 2;
  const size_t max_desc = 16;  // effectively unbounded here
  GroupStore store(n_users);
  LcmMiner::Config cfg;
  cfg.min_support = min_support;
  cfg.max_description = max_desc;
  cfg.emit_root = true;
  LcmMiner miner(&cat, cfg);
  miner.Mine(&store);

  auto expected = BruteForceClosedExtents(cat, min_support, max_desc);
  auto actual = StoreExtents(store);
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, LcmBruteForceTest,
    ::testing::Values(std::make_tuple(20, 2, 2, 1),
                      std::make_tuple(20, 3, 2, 2),
                      std::make_tuple(30, 2, 3, 3),
                      std::make_tuple(40, 3, 3, 4),
                      std::make_tuple(15, 4, 2, 5),
                      std::make_tuple(50, 3, 4, 6),
                      std::make_tuple(25, 4, 3, 7),
                      std::make_tuple(60, 2, 5, 8)));

}  // namespace
}  // namespace vexus::mining
