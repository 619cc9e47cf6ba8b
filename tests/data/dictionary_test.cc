#include "data/dictionary.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::data {
namespace {

TEST(DictionaryTest, DenseIdsInInsertionOrder) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("a"), 0u);
  EXPECT_EQ(d.GetOrAdd("b"), 1u);
  EXPECT_EQ(d.GetOrAdd("c"), 2u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(DictionaryTest, GetOrAddIsIdempotent) {
  Dictionary d;
  uint32_t a = d.GetOrAdd("x");
  EXPECT_EQ(d.GetOrAdd("x"), a);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DictionaryTest, FindPresentAndAbsent) {
  Dictionary d;
  d.GetOrAdd("alpha");
  EXPECT_EQ(d.Find("alpha"), 0u);
  EXPECT_FALSE(d.Find("beta").has_value());
}

TEST(DictionaryTest, NameRoundTrip) {
  Dictionary d;
  uint32_t id = d.GetOrAdd("hello");
  EXPECT_EQ(d.Name(id), "hello");
}

TEST(DictionaryTest, CaseSensitive) {
  Dictionary d;
  uint32_t a = d.GetOrAdd("User");
  uint32_t b = d.GetOrAdd("user");
  EXPECT_NE(a, b);
}

TEST(DictionaryTest, EmptyStringIsAValidKey) {
  Dictionary d;
  uint32_t id = d.GetOrAdd("");
  EXPECT_EQ(d.Find(""), id);
  EXPECT_EQ(d.Name(id), "");
}

TEST(DictionaryTest, NamesVectorMatchesIds) {
  Dictionary d;
  d.GetOrAdd("p");
  d.GetOrAdd("q");
  EXPECT_EQ(d.names(), (std::vector<std::string>{"p", "q"}));
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(Dictionary().empty());
}

TEST(DictionaryTest, ManyEntriesStayConsistent) {
  Dictionary d;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(d.GetOrAdd(StrCat("key", i)),
              static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(d.Find(StrCat("key", i)), static_cast<uint32_t>(i));
    EXPECT_EQ(d.Name(static_cast<uint32_t>(i)), StrCat("key", i));
  }
}

}  // namespace
}  // namespace vexus::data
