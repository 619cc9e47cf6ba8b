#include "index/similarity.h"

#include <gtest/gtest.h>

namespace vexus::index {
namespace {

TEST(JaccardTest, MatchesBitsetJaccard) {
  // The greedy's memoized pairwise similarity is the members' Jaccard.
  mining::GroupStore store(10);
  store.Append(mining::UserGroup({}, Bitset::FromVector(10, {0, 1, 2})));
  store.Append(mining::UserGroup({}, Bitset::FromVector(10, {2, 3})));
  const std::vector<mining::GroupId> pool = {0, 1};
  PairwiseSimCache sims(&store, &pool);
  EXPECT_FLOAT_EQ(sims.Sim(0, 1), 1.0f / 4.0f);
  EXPECT_EQ(sims.Sim(1, 0), sims.Sim(0, 1));
  EXPECT_EQ(sims.Sim(1, 1), 1.0f);
}

TEST(WeightedJaccardTest, UniformWeightsReduceToPlain) {
  Bitset a = Bitset::FromVector(20, {0, 1, 2, 3});
  Bitset b = Bitset::FromVector(20, {2, 3, 4, 5});
  std::vector<double> w(20, 0.05);
  EXPECT_NEAR(WeightedJaccard(a, b, w), a.Jaccard(b), 1e-12);
}

TEST(WeightedJaccardTest, UpweightedSharedUserRaisesSimilarity) {
  Bitset a = Bitset::FromVector(10, {0, 1});
  Bitset b = Bitset::FromVector(10, {0, 2});
  std::vector<double> uniform(10, 1.0);
  double base = WeightedJaccard(a, b, uniform);
  std::vector<double> boosted = uniform;
  boosted[0] = 10.0;  // user 0 is in the intersection
  EXPECT_GT(WeightedJaccard(a, b, boosted), base);
}

TEST(WeightedJaccardTest, UpweightedNonSharedUserLowersSimilarity) {
  Bitset a = Bitset::FromVector(10, {0, 1});
  Bitset b = Bitset::FromVector(10, {0, 2});
  std::vector<double> uniform(10, 1.0);
  double base = WeightedJaccard(a, b, uniform);
  std::vector<double> boosted = uniform;
  boosted[1] = 10.0;  // user 1 only in a
  EXPECT_LT(WeightedJaccard(a, b, boosted), base);
}

TEST(WeightedJaccardTest, BothEmptyIsOne) {
  Bitset a(5), b(5);
  std::vector<double> w(5, 1.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b, w), 1.0);
}

TEST(WeightedJaccardTest, ZeroWeightUnionFallsBackToSets) {
  Bitset a = Bitset::FromVector(5, {0});
  Bitset b = Bitset::FromVector(5, {1});
  std::vector<double> w(5, 0.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b, w), 0.0);
}

TEST(WeightedJaccardTest, DisjointIsZero) {
  Bitset a = Bitset::FromVector(10, {0, 1});
  Bitset b = Bitset::FromVector(10, {5, 6});
  std::vector<double> w(10, 1.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b, w), 0.0);
}

TEST(WeightedJaccardTest, IdenticalSetsAreOne) {
  Bitset a = Bitset::FromVector(10, {1, 4, 7});
  std::vector<double> w(10, 0.3);
  w[4] = 5.0;
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, a, w), 1.0);
}

}  // namespace
}  // namespace vexus::index
