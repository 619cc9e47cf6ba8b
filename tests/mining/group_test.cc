#include "mining/group.h"

#include <gtest/gtest.h>

namespace vexus::mining {
namespace {

data::Schema MakeSchema() {
  data::Schema s;
  data::AttributeId g = s.AddCategorical("gender");
  s.attribute(g).values().GetOrAdd("m");
  s.attribute(g).values().GetOrAdd("f");
  data::AttributeId c = s.AddCategorical("country");
  s.attribute(c).values().GetOrAdd("fr");
  return s;
}

TEST(UserGroupTest, SortsAndDedupsDescription) {
  UserGroup g({{1, 0}, {0, 1}, {1, 0}}, Bitset(10));
  ASSERT_EQ(g.description().size(), 2u);
  EXPECT_EQ(g.description()[0].attribute, 0u);
  EXPECT_EQ(g.description()[1].attribute, 1u);
}

TEST(UserGroupTest, SizeCachesCount) {
  UserGroup g({}, Bitset::FromVector(10, {1, 5, 7}));
  EXPECT_EQ(g.size(), 3u);
}

TEST(UserGroupTest, ContainsUser) {
  UserGroup g({}, Bitset::FromVector(10, {2}));
  EXPECT_TRUE(g.ContainsUser(2));
  EXPECT_FALSE(g.ContainsUser(3));
}

TEST(UserGroupTest, DescriptionString) {
  data::Schema s = MakeSchema();
  UserGroup g({{0, 1}, {1, 0}}, Bitset(4));
  EXPECT_EQ(g.DescriptionString(s), "gender=f ∧ country=fr");
  UserGroup root({}, Bitset(4));
  EXPECT_EQ(root.DescriptionString(s), "<cluster>");
}

TEST(UserGroupTest, DescriptionHashDiscriminates) {
  UserGroup a({{0, 0}}, Bitset(4));
  UserGroup b({{0, 1}}, Bitset(4));
  UserGroup c({{0, 0}}, Bitset(4));
  EXPECT_EQ(a.DescriptionHash(), c.DescriptionHash());
  EXPECT_NE(a.DescriptionHash(), b.DescriptionHash());
}

TEST(GroupStoreTest, AddAndRetrieve) {
  GroupStore store(10);
  GroupId id = store.Add(UserGroup({{0, 0}}, Bitset::FromVector(10, {1})));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.group(id).size(), 1u);
  EXPECT_EQ(store.num_users(), 10u);
}

TEST(GroupStoreTest, DedupsIdenticalGroups) {
  GroupStore store(10);
  GroupId a = store.Add(UserGroup({{0, 0}}, Bitset::FromVector(10, {1, 2})));
  GroupId b = store.Add(UserGroup({{0, 0}}, Bitset::FromVector(10, {1, 2})));
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.size(), 1u);
}

TEST(GroupStoreTest, SameDescriptionDifferentExtentNotDeduped) {
  // BIRCH clusters can share a label but hold different members.
  GroupStore store(10);
  GroupId a = store.Add(UserGroup({{0, 0}}, Bitset::FromVector(10, {1})));
  GroupId b = store.Add(UserGroup({{0, 0}}, Bitset::FromVector(10, {2})));
  EXPECT_NE(a, b);
  EXPECT_EQ(store.size(), 2u);
}

TEST(GroupStoreTest, EmptyDescriptionsNotDedupedAcrossExtents) {
  GroupStore store(10);
  GroupId a = store.Add(UserGroup({}, Bitset::FromVector(10, {1})));
  GroupId b = store.Add(UserGroup({}, Bitset::FromVector(10, {2})));
  EXPECT_NE(a, b);
}

TEST(GroupStoreTest, MemoryBytesPositive) {
  GroupStore store(1000);
  // Every group is dense: even an empty one owns its universe's words.
  store.Add(UserGroup({}, Bitset(1000)));
  EXPECT_EQ(store.MemoryBytes(), 16 * sizeof(uint64_t));
  Bitset m(1000);
  m.Set(3);
  store.Add(UserGroup({{0, 1}}, std::move(m)));
  EXPECT_EQ(store.MemoryBytes(), 32 * sizeof(uint64_t));
}

}  // namespace
}  // namespace vexus::mining
