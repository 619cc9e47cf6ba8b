#include "data/schema.h"

#include <gtest/gtest.h>

namespace vexus::data {
namespace {

TEST(SchemaTest, AddAndLookup) {
  Schema s;
  AttributeId age = s.AddNumeric("age");
  AttributeId gender = s.AddCategorical("gender");
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.Find("age"), age);
  EXPECT_EQ(s.Find("gender"), gender);
  EXPECT_FALSE(s.Find("missing").has_value());
  EXPECT_EQ(s.attribute(age).kind(), AttributeKind::kNumeric);
  EXPECT_EQ(s.attribute(gender).kind(), AttributeKind::kCategorical);
  EXPECT_EQ(s.attribute(age).name(), "age");
}

TEST(SchemaTest, RequireReportsNotFound) {
  Schema s;
  s.AddCategorical("x");
  EXPECT_TRUE(s.Require("x").ok());
  auto r = s.Require("y");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(AttributeTest, ValueNameForNull) {
  Attribute a("x", AttributeKind::kCategorical);
  EXPECT_EQ(a.ValueName(kNullValue), "∅");
  ValueId v = a.values().GetOrAdd("red");
  EXPECT_EQ(a.ValueName(v), "red");
}

TEST(AttributeTest, BinEdgesCreateLabels) {
  Attribute a("age", AttributeKind::kNumeric);
  EXPECT_FALSE(a.has_bins());
  a.SetBinEdges({0, 10, 20});
  EXPECT_TRUE(a.has_bins());
  EXPECT_EQ(a.values().size(), 2u);
  EXPECT_EQ(a.values().Name(0), "[0,10)");
  EXPECT_EQ(a.values().Name(1), "[10,20)");
}

TEST(AttributeTest, BinForMapsValues) {
  Attribute a("v", AttributeKind::kNumeric);
  a.SetBinEdges({0, 10, 20, 30});
  EXPECT_EQ(a.BinFor(0), 0u);
  EXPECT_EQ(a.BinFor(9.99), 0u);
  EXPECT_EQ(a.BinFor(10), 1u);
  EXPECT_EQ(a.BinFor(19.5), 1u);
  EXPECT_EQ(a.BinFor(25), 2u);
}

TEST(AttributeTest, BinForClampsOutOfRange) {
  Attribute a("v", AttributeKind::kNumeric);
  a.SetBinEdges({0, 10, 20});
  EXPECT_EQ(a.BinFor(-5), 0u);
  EXPECT_EQ(a.BinFor(20), 1u);  // at/above top edge -> last bin
  EXPECT_EQ(a.BinFor(100), 1u);
}

TEST(AttributeTest, BinBoundariesExact) {
  Attribute a("v", AttributeKind::kNumeric);
  a.SetBinEdges({1, 2, 3, 4, 5});
  // Each edge value belongs to the bin it opens.
  EXPECT_EQ(a.BinFor(1), 0u);
  EXPECT_EQ(a.BinFor(2), 1u);
  EXPECT_EQ(a.BinFor(3), 2u);
  EXPECT_EQ(a.BinFor(4), 3u);
}

TEST(AttributeTest, ManyBinsBinarySearch) {
  Attribute a("v", AttributeKind::kNumeric);
  std::vector<double> edges;
  for (int i = 0; i <= 100; ++i) edges.push_back(i);
  a.SetBinEdges(edges);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.BinFor(i + 0.5), static_cast<ValueId>(i));
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(SchemaDeathTest, DuplicateAttributeNameAborts) {
  Schema s;
  s.AddCategorical("dup");
  ASSERT_DEATH(s.AddNumeric("dup"), "duplicate attribute");
}
#endif

}  // namespace
}  // namespace vexus::data
