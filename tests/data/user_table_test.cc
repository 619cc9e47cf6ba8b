#include "data/user_table.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::data {
namespace {

class UserTableTest : public ::testing::Test {
 protected:
  UserTableTest() : table_(&schema_) {
    gender_ = schema_.AddCategorical("gender");
    age_ = schema_.AddNumeric("age");
  }

  Schema schema_;
  UserTable table_;
  AttributeId gender_ = 0;
  AttributeId age_ = 0;
};

TEST_F(UserTableTest, AddUserAssignsDenseIds) {
  EXPECT_EQ(table_.AddUser("u0"), 0u);
  EXPECT_EQ(table_.AddUser("u1"), 1u);
  EXPECT_EQ(table_.size(), 2u);
  EXPECT_EQ(table_.ExternalId(1), "u1");
}

TEST_F(UserTableTest, ReaddingReturnsExistingId) {
  UserId u = table_.AddUser("same");
  EXPECT_EQ(table_.AddUser("same"), u);
  EXPECT_EQ(table_.size(), 1u);
}

TEST_F(UserTableTest, FindUser) {
  table_.AddUser("alice");
  EXPECT_EQ(table_.FindUser("alice"), 0u);
  EXPECT_FALSE(table_.FindUser("bob").has_value());
}

TEST_F(UserTableTest, NewUserHasNullValues) {
  UserId u = table_.AddUser("x");
  EXPECT_TRUE(table_.IsNull(u, gender_));
  EXPECT_TRUE(std::isnan(table_.Numeric(u, age_)));
}

TEST_F(UserTableTest, SetValueByNameGrowsDictionary) {
  UserId u = table_.AddUser("x");
  table_.SetValueByName(u, gender_, "female");
  EXPECT_EQ(table_.Value(u, gender_), 0u);
  EXPECT_EQ(schema_.attribute(gender_).values().Name(0), "female");
  EXPECT_FALSE(table_.IsNull(u, gender_));
}

TEST_F(UserTableTest, NumericRoundTrip) {
  UserId u = table_.AddUser("x");
  table_.SetNumeric(u, age_, 33.5);
  EXPECT_DOUBLE_EQ(table_.Numeric(u, age_), 33.5);
  // Without bins, the code column stays null.
  EXPECT_TRUE(table_.IsNull(u, age_));
}

TEST_F(UserTableTest, SetNumericAfterBinsCodesImmediately) {
  schema_.attribute(age_).SetBinEdges({0, 30, 60});
  UserId u = table_.AddUser("x");
  table_.SetNumeric(u, age_, 45.0);
  EXPECT_EQ(table_.Value(u, age_), 1u);
}

TEST_F(UserTableTest, ApplyBinsBackfills) {
  UserId a = table_.AddUser("a");
  UserId b = table_.AddUser("b");
  UserId c = table_.AddUser("c");
  table_.SetNumeric(a, age_, 5.0);
  table_.SetNumeric(b, age_, 45.0);
  // c stays missing.
  schema_.attribute(age_).SetBinEdges({0, 30, 60});
  table_.ApplyBins(age_);
  EXPECT_EQ(table_.Value(a, age_), 0u);
  EXPECT_EQ(table_.Value(b, age_), 1u);
  EXPECT_TRUE(table_.IsNull(c, age_));
}

TEST_F(UserTableTest, UsersWithValueBitset) {
  UserId a = table_.AddUser("a");
  UserId b = table_.AddUser("b");
  UserId c = table_.AddUser("c");
  table_.SetValueByName(a, gender_, "m");
  table_.SetValueByName(b, gender_, "f");
  table_.SetValueByName(c, gender_, "m");
  ValueId m = *schema_.attribute(gender_).values().Find("m");
  Bitset males = table_.UsersWithValue(gender_, m);
  EXPECT_EQ(males.ToVector(), (std::vector<uint32_t>{a, c}));
}

TEST_F(UserTableTest, NonNullCount) {
  table_.AddUser("a");
  UserId b = table_.AddUser("b");
  table_.SetValueByName(b, gender_, "f");
  EXPECT_EQ(table_.NonNullCount(gender_), 1u);
}

TEST_F(UserTableTest, AttributesAddedAfterUsers) {
  UserId u = table_.AddUser("early");
  AttributeId late = schema_.AddCategorical("late_attr");
  // Column materializes lazily; existing user reads as null.
  table_.SetValueByName(u, late, "v");
  EXPECT_FALSE(table_.IsNull(u, late));
  UserId u2 = table_.AddUser("second");
  EXPECT_TRUE(table_.IsNull(u2, late));
}

TEST_F(UserTableTest, ManyUsersColumnsStayAligned) {
  schema_.attribute(age_).SetBinEdges({0, 50, 100});
  for (int i = 0; i < 1000; ++i) {
    UserId u = table_.AddUser(StrCat("u", i));
    table_.SetNumeric(u, age_, static_cast<double>(i % 100));
    table_.SetValueByName(u, gender_, i % 2 == 0 ? "m" : "f");
  }
  EXPECT_EQ(table_.size(), 1000u);
  EXPECT_EQ(table_.NonNullCount(gender_), 1000u);
  EXPECT_EQ(table_.Value(123, age_), 0u);  // age 23 -> bin [0,50)
  EXPECT_EQ(table_.Value(150, age_), 1u);  // age 50 -> bin [50,100)
  EXPECT_EQ(table_.Value(23, age_), 0u);
}

}  // namespace
}  // namespace vexus::data
