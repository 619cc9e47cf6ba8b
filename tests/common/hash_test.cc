#include "common/hash.h"

#include <set>

#include <gtest/gtest.h>

namespace vexus {
namespace {

TEST(Mix64Test, DeterministicAndDispersive) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Consecutive inputs should produce well-spread outputs.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(Mix64Test, ZeroIsFixedPointFree) {
  EXPECT_EQ(Mix64(0), 0u);  // fmix64(0) == 0 by construction
  EXPECT_NE(Mix64(1), 1u);
}

TEST(HashCombineTest, OrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
}

TEST(HashCombineTest, SensitiveToBothArguments) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(1, 3));
  EXPECT_NE(HashCombine(1, 2), HashCombine(4, 2));
}

}  // namespace
}  // namespace vexus
