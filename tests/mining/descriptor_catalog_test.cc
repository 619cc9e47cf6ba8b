#include "mining/descriptor_catalog.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::mining {
namespace {

/// 6 users over gender{m,f} and color{r,g,b}.
data::Dataset MakeDataset() {
  data::Dataset ds;
  data::AttributeId g = ds.schema().AddCategorical("gender");
  data::AttributeId c = ds.schema().AddCategorical("color");
  const char* genders[] = {"m", "m", "m", "f", "f", "m"};
  const char* colors[] = {"r", "r", "g", "g", "b", "r"};
  for (int i = 0; i < 6; ++i) {
    data::UserId u = ds.users().AddUser(StrCat("u", i));
    ds.users().SetValueByName(u, g, genders[i]);
    ds.users().SetValueByName(u, c, colors[i]);
  }
  return ds;
}

TEST(DescriptorCatalogTest, BuildsAllValuePairs) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds);
  EXPECT_EQ(cat.size(), 5u);  // m, f, r, g, b
  EXPECT_EQ(cat.num_users(), 6u);
}

TEST(DescriptorCatalogTest, OrderedByAscendingSupport) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds);
  for (DescriptorId d = 1; d < cat.size(); ++d) {
    EXPECT_LE(cat.Support(d - 1), cat.Support(d));
  }
}

TEST(DescriptorCatalogTest, UserSetsMatchSupports) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds);
  for (DescriptorId d = 0; d < cat.size(); ++d) {
    EXPECT_EQ(cat.UserSet(d).Count(), cat.Support(d));
  }
}

TEST(DescriptorCatalogTest, FindLocatesDescriptor) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds);
  auto g = *ds.schema().Find("gender");
  auto m = *ds.schema().attribute(g).values().Find("m");
  auto d = cat.Find(g, m);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(cat.Support(*d), 4u);
  EXPECT_EQ(cat.descriptor(*d).attribute, g);
  EXPECT_EQ(cat.descriptor(*d).value, m);
}

TEST(DescriptorCatalogTest, MinCountFilters) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds, {}, /*min_count=*/2);
  // "b" (support 1) must be filtered out.
  EXPECT_EQ(cat.size(), 4u);
  auto c = *ds.schema().Find("color");
  auto b = *ds.schema().attribute(c).values().Find("b");
  EXPECT_FALSE(cat.Find(c, b).has_value());
}

TEST(DescriptorCatalogTest, AttributeSubset) {
  data::Dataset ds = MakeDataset();
  auto g = *ds.schema().Find("gender");
  auto cat = DescriptorCatalog::Build(ds, {g});
  EXPECT_EQ(cat.size(), 2u);
}

TEST(DescriptorCatalogTest, TransactionListsUserDescriptors) {
  data::Dataset ds = MakeDataset();
  auto cat = DescriptorCatalog::Build(ds);
  // Every user carries exactly 2 descriptors (one per attribute).
  for (data::UserId u = 0; u < 6; ++u) {
    auto txn = cat.Transaction(u);
    EXPECT_EQ(txn.size(), 2u);
    EXPECT_TRUE(std::is_sorted(txn.begin(), txn.end()));
    for (DescriptorId d : txn) {
      EXPECT_TRUE(cat.UserSet(d).Test(u));
    }
  }
}

TEST(DescriptorCatalogTest, NullValuesCarryNoDescriptor) {
  data::Dataset ds;
  data::AttributeId g = ds.schema().AddCategorical("g");
  ds.users().AddUser("u0");  // value stays null
  data::UserId u1 = ds.users().AddUser("u1");
  ds.users().SetValueByName(u1, g, "x");
  auto cat = DescriptorCatalog::Build(ds);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_FALSE(cat.UserSet(0).Test(0));
  EXPECT_TRUE(cat.UserSet(0).Test(1));
  EXPECT_TRUE(cat.Transaction(0).empty());
}

}  // namespace
}  // namespace vexus::mining
