#include "common/string_util.h"

#include <gtest/gtest.h>

namespace vexus {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nhi\r "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo 42!"), "hello 42!");
  EXPECT_EQ(ToLower(""), "");
}

TEST(ParseIntTest, ValidInputs) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-17"), -17);
  EXPECT_EQ(ParseInt("  8  "), 8);
  EXPECT_EQ(ParseInt("0"), 0);
}

TEST(ParseIntTest, InvalidInputs) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("   ").has_value());
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.5z").has_value());
}

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(1.5, 4), "1.5");
  EXPECT_EQ(FormatDouble(2.0, 4), "2");
  EXPECT_EQ(FormatDouble(0.125, 4), "0.125");
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-3.1000, 4), "-3.1");
  EXPECT_EQ(FormatDouble(0.0, 4), "0");
}

TEST(WithThousandsTest, GroupsDigits) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(1000000000ULL), "1,000,000,000");
}

}  // namespace
}  // namespace vexus
