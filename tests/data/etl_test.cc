#include "data/etl.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::data {
namespace {

Result<Dataset> RunEtl(const std::string& users, const std::string& actions,
                       EtlOptions options = EtlOptions{},
                       EtlReport* report = nullptr) {
  std::istringstream u(users);
  std::istringstream a(actions);
  EtlPipeline pipeline(options);
  auto r = pipeline.Run(&u, actions.empty() ? nullptr : &a);
  if (report != nullptr) *report = pipeline.report();
  return r;
}

TEST(EtlTest, BasicImport) {
  auto ds = RunEtl(
      "user_id,gender,age\nu1,F,25\nu2,M,40\nu3,F,31\n",
      "user,item,value\nu1,book1,5\nu2,book1,3\nu3,book2,4\n");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->num_users(), 3u);
  EXPECT_EQ(ds->num_items(), 2u);
  EXPECT_EQ(ds->num_actions(), 3u);
}

TEST(EtlTest, TypeInferenceSplitsColumns) {
  EtlReport report;
  auto ds = RunEtl("user_id,gender,age\nu1,F,25\nu2,M,40\n", "", {}, &report);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(report.categorical_columns, std::vector<std::string>{"gender"});
  EXPECT_EQ(report.numeric_columns, std::vector<std::string>{"age"});
  auto age = ds->schema().Require("age");
  ASSERT_TRUE(age.ok());
  EXPECT_EQ(ds->schema().attribute(*age).kind(), AttributeKind::kNumeric);
}

TEST(EtlTest, ValuesAreLowercasedAndTrimmed) {
  auto ds = RunEtl("user_id,gender\nu1,  FeMale \n", "");
  ASSERT_TRUE(ds.ok());
  auto g = *ds->schema().Find("gender");
  EXPECT_EQ(ds->schema().attribute(g).values().Name(0), "female");
}

TEST(EtlTest, LowercaseCanBeDisabled) {
  EtlOptions opt;
  opt.lowercase_values = false;
  auto ds = RunEtl("user_id,gender\nu1,FeMale\n", "", opt);
  ASSERT_TRUE(ds.ok());
  auto g = *ds->schema().Find("gender");
  EXPECT_EQ(ds->schema().attribute(g).values().Name(0), "FeMale");
}

TEST(EtlTest, NullTokensBecomeMissing) {
  EtlReport report;
  auto ds = RunEtl(
      "user_id,gender\nu1,NULL\nu2,n/a\nu3,\nu4,f\n", "", {}, &report);
  ASSERT_TRUE(ds.ok());
  auto g = *ds->schema().Find("gender");
  EXPECT_EQ(ds->users().NonNullCount(g), 1u);
  EXPECT_EQ(report.null_cells, 3u);
}

TEST(EtlTest, NumericColumnsGetBinned) {
  auto ds = RunEtl(
      "user_id,score\nu1,1\nu2,2\nu3,3\nu4,4\nu5,5\nu6,6\nu7,7\nu8,8\nu9,9\n"
      "u10,10\n",
      "");
  ASSERT_TRUE(ds.ok());
  auto s = *ds->schema().Find("score");
  const Attribute& attr = ds->schema().attribute(s);
  EXPECT_TRUE(attr.has_bins());
  // Every user must land in a bin (max value included via edge widening).
  EXPECT_EQ(ds->users().NonNullCount(s), 10u);
}

TEST(EtlTest, QuantileBinsBalancePopulation) {
  std::string users = "user_id,v\n";
  for (int i = 0; i < 100; ++i) {
    users += StrCat("u", i, ",", i, "\n");
  }
  EtlOptions opt;
  opt.num_bins = 4;
  opt.binning = BinningStrategy::kQuantile;
  opt.derive_activity_level = false;
  auto ds = RunEtl(users, "", opt);
  ASSERT_TRUE(ds.ok());
  auto v = *ds->schema().Find("v");
  std::vector<size_t> counts(ds->schema().attribute(v).values().size(), 0);
  for (UserId u = 0; u < ds->num_users(); ++u) {
    ++counts[ds->users().Value(u, v)];
  }
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 25.0, 2.0);
  }
}

TEST(EtlTest, DuplicateUsersMergeAndCount) {
  EtlReport report;
  auto ds = RunEtl("user_id,g\nu1,a\nu1,b\nu2,c\n", "", {}, &report);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_users(), 2u);
  EXPECT_EQ(report.duplicate_user_rows, 1u);
  // Later row wins.
  auto g = *ds->schema().Find("g");
  EXPECT_EQ(ds->schema()
                .attribute(g)
                .values()
                .Name(ds->users().Value(0, g)),
            "b");
}

TEST(EtlTest, ActionsCreateMissingUsers) {
  EtlReport report;
  auto ds = RunEtl("user_id,g\nu1,a\n",
                   "user,item,value\nu1,b1,5\nghost,b2,1\n", {}, &report);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_users(), 2u);
  EXPECT_EQ(report.users_created_from_actions, 1u);
}

TEST(EtlTest, MissingUsersCanBeDropped) {
  EtlOptions opt;
  opt.add_missing_users = false;
  EtlReport report;
  auto ds = RunEtl("user_id,g\nu1,a\n",
                   "user,item,value\nu1,b1,5\nghost,b2,1\n", opt, &report);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_users(), 1u);
  EXPECT_EQ(ds->num_actions(), 1u);
  EXPECT_EQ(report.actions_dropped_bad_value, 1u);
}

TEST(EtlTest, ActionDedupKeepsLast) {
  auto ds = RunEtl("user_id,g\nu1,a\n",
                   "user,item,value\nu1,b1,2\nu1,b1,9\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_actions(), 1u);
  EXPECT_FLOAT_EQ(ds->actions().action(0).value, 9.0f);
}

TEST(EtlTest, UnparsableValueDefaultsToOne) {
  auto ds = RunEtl("user_id,g\nu1,a\n", "user,item,value\nu1,b1,oops\n");
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->num_actions(), 1u);
  EXPECT_FLOAT_EQ(ds->actions().action(0).value, 1.0f);
}

TEST(EtlTest, UnparsableValueCanBeDropped) {
  EtlOptions opt;
  opt.drop_unparsable_values = true;
  auto ds = RunEtl("user_id,g\nu1,a\n", "user,item,value\nu1,b1,oops\n", opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_actions(), 0u);
}

TEST(EtlTest, ItemCategoriesFlowThrough) {
  auto ds = RunEtl("user_id,g\nu1,a\n",
                   "user,item,value,category\nu1,b1,5,Fiction\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->actions().categories().size(), 1u);
  EXPECT_EQ(ds->actions().ItemCategory(0), 0u);
  EXPECT_EQ(ds->actions().categories().Name(0), "fiction");
}

TEST(EtlTest, DerivedActivityAttribute) {
  auto ds = RunEtl(
      "user_id,g\nu1,a\nu2,a\nu3,a\n",
      "user,item,value\nu1,b1,1\nu1,b2,1\nu1,b3,1\nu2,b1,1\nu3,b1,1\n");
  ASSERT_TRUE(ds.ok());
  auto act = ds->schema().Find("activity");
  ASSERT_TRUE(act.has_value());
  // u1 has 3 actions, others 1: u1 must land in a higher bin.
  EXPECT_GE(ds->users().Value(0, *act), ds->users().Value(1, *act));
}

TEST(EtlTest, DerivedFavoriteCategory) {
  auto ds = RunEtl(
      "user_id,g\nu1,a\n",
      "user,item,value,category\nu1,b1,5,scifi\nu1,b2,5,scifi\nu1,b3,5,"
      "romance\n");
  ASSERT_TRUE(ds.ok());
  auto fav = ds->schema().Find("favorite_category");
  ASSERT_TRUE(fav.has_value());
  const Attribute& attr = ds->schema().attribute(*fav);
  EXPECT_EQ(attr.ValueName(ds->users().Value(0, *fav)), "scifi");
}

TEST(EtlTest, DerivationsCanBeDisabled) {
  EtlOptions opt;
  opt.derive_activity_level = false;
  opt.derive_favorite_category = false;
  auto ds = RunEtl("user_id,g\nu1,a\n",
                   "user,item,value,category\nu1,b1,5,c1\n", opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(ds->schema().Find("activity").has_value());
  EXPECT_FALSE(ds->schema().Find("favorite_category").has_value());
}

TEST(EtlTest, HeaderlessUsersCsvFails) {
  auto ds = RunEtl("", "");
  EXPECT_FALSE(ds.ok());
}

TEST(EtlTest, RaggedRowFails) {
  auto ds = RunEtl("user_id,a,b\nu1,1\n", "");
  EXPECT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsCorruption());
}

TEST(EtlTest, DuplicateHeaderNamesFail) {
  auto ds = RunEtl("user_id,x,x\nu1,1,2\n", "");
  EXPECT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsInvalidArgument());
}

TEST(EtlTest, ComputeBinEdgesEqualWidth) {
  auto edges = EtlPipeline::ComputeBinEdges({0, 10}, 5,
                                            BinningStrategy::kEqualWidth);
  ASSERT_EQ(edges.size(), 6u);
  EXPECT_DOUBLE_EQ(edges[0], 0.0);
  EXPECT_DOUBLE_EQ(edges[1], 2.0);
  EXPECT_DOUBLE_EQ(edges[5], 10.0);
}

TEST(EtlTest, ComputeBinEdgesConstantColumn) {
  auto edges =
      EtlPipeline::ComputeBinEdges({5, 5, 5}, 4, BinningStrategy::kQuantile);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_LT(edges.front(), edges.back());
}

TEST(EtlTest, ComputeBinEdgesEmptyInput) {
  auto edges =
      EtlPipeline::ComputeBinEdges({}, 3, BinningStrategy::kEqualWidth);
  ASSERT_GE(edges.size(), 2u);
}

TEST(EtlTest, ComputeBinEdgesCollapsesDuplicateQuantiles) {
  // Heavily repeated values would produce duplicate quantile edges.
  std::vector<double> vals(100, 1.0);
  vals.push_back(2.0);
  auto edges =
      EtlPipeline::ComputeBinEdges(vals, 5, BinningStrategy::kQuantile);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(EtlTest, ReportToStringMentionsCounts) {
  EtlReport report;
  RunEtl("user_id,g\nu1,a\n", "user,item,value\nu1,b,1\n", {}, &report)
      .ok();
  std::string s = report.ToString();
  EXPECT_NE(s.find("users 1->1"), std::string::npos);
}

}  // namespace
}  // namespace vexus::data
