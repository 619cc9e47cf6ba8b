#include "common/bitset.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vexus {
namespace {

TEST(BitsetTest, DefaultIsEmpty) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
}

TEST(BitsetTest, SetTestClear) {
  Bitset b(100);
  EXPECT_FALSE(b.Test(63));
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(0));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, SetAllRespectsTail) {
  Bitset b(70);  // non-multiple of 64 exercises the tail mask
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  b.ClearAll();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitsetTest, ResizeGrowsWithClearBits) {
  Bitset b(10);
  b.Set(9);
  b.Resize(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(b.Test(9));
  EXPECT_EQ(b.Count(), 1u);
}

TEST(BitsetTest, ResizeShrinkMasksTail) {
  Bitset b(128);
  b.SetAll();
  b.Resize(65);
  EXPECT_EQ(b.Count(), 65u);
}

TEST(BitsetTest, ResizeShrinkThenGrowClearsStaleTailBits) {
  // Regression sweep across word boundaries: shrink to `mid` (dropping set
  // bits above it), then grow back to `big`. The dropped range must read as
  // zero — a stale tail word surviving the shrink would resurrect members
  // and corrupt every popcount kernel downstream.
  const size_t big = 3 * 64 + 5;  // 197
  for (size_t mid = 1; mid <= big; ++mid) {
    // Only boundary-adjacent sizes are interesting; skip mid-word interiors
    // except a couple of sentinels to keep the sweep fast.
    size_t rem = mid % 64;
    if (rem > 2 && rem < 62 && mid != 32 && mid != 100) continue;
    Bitset b(big);
    b.SetAll();
    b.Resize(mid);
    b.Resize(big);
    SCOPED_TRACE(testing::Message() << "mid=" << mid);
    EXPECT_EQ(b.Count(), mid);
    EXPECT_TRUE(b.Test(mid - 1));
    if (mid < big) {
      EXPECT_FALSE(b.Test(mid));
    }
    EXPECT_FALSE(b.Test(big - 1));
    // The tail must also be invisible to the kernels, not just Test().
    Bitset all(big);
    all.SetAll();
    EXPECT_EQ(b.IntersectCount(all), mid);
    EXPECT_EQ((b | all).Count(), big);
    EXPECT_EQ(all.CountAndNot(b), big - mid);
  }
}

TEST(BitsetTest, AndOrXorSubtract) {
  Bitset a = Bitset::FromVector(10, {1, 2, 3, 4});
  Bitset b = Bitset::FromVector(10, {3, 4, 5, 6});
  EXPECT_EQ((a & b).ToVector(), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ((a | b).ToVector(), (std::vector<uint32_t>{1, 2, 3, 4, 5, 6}));
  Bitset sym = a | b;  // symmetric difference: (a ∪ b) − (a ∩ b)
  sym.Subtract(a & b);
  EXPECT_EQ(sym.ToVector(), (std::vector<uint32_t>{1, 2, 5, 6}));
  Bitset diff = a;
  diff.Subtract(b);
  EXPECT_EQ(diff.ToVector(), (std::vector<uint32_t>{1, 2}));
}

TEST(BitsetTest, IntersectUnionCountsMatchMaterialized) {
  Rng rng(7);
  Bitset a(500), b(500);
  for (int i = 0; i < 120; ++i) a.Set(rng.UniformU32(500));
  for (int i = 0; i < 120; ++i) b.Set(rng.UniformU32(500));
  EXPECT_EQ(a.IntersectCount(b), (a & b).Count());
  Bitset uni;
  EXPECT_EQ(uni.AssignUnionCount(a, b), (a | b).Count());
  EXPECT_TRUE(uni == (a | b));
}

TEST(BitsetTest, JaccardBasic) {
  Bitset a = Bitset::FromVector(8, {0, 1, 2, 3});
  Bitset b = Bitset::FromVector(8, {2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(a.Jaccard(a), 1.0);
}

TEST(BitsetTest, JaccardBothEmptyIsOne) {
  Bitset a(16), b(16);
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 1.0);
}

TEST(BitsetTest, JaccardDisjointIsZero) {
  Bitset a = Bitset::FromVector(16, {0, 1});
  Bitset b = Bitset::FromVector(16, {8, 9});
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 0.0);
}

TEST(BitsetTest, SubsetAndDisjoint) {
  Bitset a = Bitset::FromVector(64, {5, 6});
  Bitset b = Bitset::FromVector(64, {5, 6, 7});
  Bitset c = Bitset::FromVector(64, {40});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_EQ(a.IntersectCount(c), 0u);  // disjoint
  EXPECT_NE(a.IntersectCount(b), 0u);
  Bitset empty(64);
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_EQ(empty.IntersectCount(a), 0u);
}

TEST(BitsetTest, ForEachVisitsAscending) {
  Bitset b = Bitset::FromVector(200, {0, 63, 64, 128, 199});
  std::vector<uint32_t> seen;
  b.ForEach([&seen](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 63, 64, 128, 199}));
}

TEST(BitsetTest, ToVectorFromVectorRoundTrip) {
  std::vector<uint32_t> elems = {3, 17, 64, 65, 190};
  Bitset b = Bitset::FromVector(256, elems);
  EXPECT_EQ(b.ToVector(), elems);
}

TEST(BitsetTest, FromVectorDuplicatesCollapse) {
  Bitset b = Bitset::FromVector(10, {4, 4, 4});
  EXPECT_EQ(b.Count(), 1u);
}

TEST(BitsetTest, EqualityAndHash) {
  Bitset a = Bitset::FromVector(80, {1, 40});
  Bitset b = Bitset::FromVector(80, {1, 40});
  Bitset c = Bitset::FromVector(80, {1, 41});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(BitsetTest, HashDependsOnUniverseSize) {
  Bitset a = Bitset::FromVector(64, {3});
  Bitset b = Bitset::FromVector(128, {3});
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(BitsetTest, MemoryBytesTracksWords) {
  Bitset b(640);
  EXPECT_EQ(b.MemoryBytes(), 10 * sizeof(uint64_t));
}

// Property sweep: algebra identities hold across random instances and sizes.
class BitsetPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitsetPropertyTest, AlgebraIdentities) {
  size_t n = GetParam();
  Rng rng(n * 31 + 1);
  Bitset a(n), b(n), c(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
    if (rng.Bernoulli(0.3)) c.Set(i);
  }
  // Inclusion–exclusion.
  EXPECT_EQ((a | b).Count() + a.IntersectCount(b), a.Count() + b.Count());
  // Commutativity.
  EXPECT_TRUE((a & b) == (b & a));
  EXPECT_TRUE((a | b) == (b | a));
  // Distributivity: a & (b | c) == (a & b) | (a & c).
  EXPECT_TRUE((a & (b | c)) == ((a & b) | (a & c)));
  // Subtraction: a − b and a ∩ b partition a.
  Bitset lhs = a;
  lhs.Subtract(b);
  EXPECT_EQ(lhs.Count(), a.CountAndNot(b));
  EXPECT_EQ(lhs.IntersectCount(b), 0u);
  EXPECT_TRUE((lhs | (a & b)) == a);
  // Jaccard symmetry and bounds.
  double j = a.Jaccard(b);
  EXPECT_DOUBLE_EQ(j, b.Jaccard(a));
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
  // Subset implies intersect == own count.
  Bitset sub = a & b;
  EXPECT_TRUE(sub.IsSubsetOf(a));
  EXPECT_EQ(sub.IntersectCount(a), sub.Count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetPropertyTest,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

// The fused helpers the incremental greedy evaluator leans on. Each is
// checked against the compositional (multi-temporary) formulation across the
// same size sweep.
class BitsetFusedOpsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitsetFusedOpsTest, MatchCompositionalForms) {
  size_t n = GetParam();
  Rng rng(n * 17 + 5);
  Bitset a(n), b(n), c(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
    if (rng.Bernoulli(0.5)) c.Set(i);
  }

  // CountAndNot: |a ∩ ¬b| == |a| - |a ∩ b|.
  EXPECT_EQ(a.CountAndNot(b), a.Count() - a.IntersectCount(b));

  // IntersectCountAndNot: |a ∩ b ∩ ¬c| via explicit temporaries.
  Bitset ab = a & b;
  Bitset abnc = ab;
  abnc.Subtract(c);
  EXPECT_EQ(a.IntersectCountAndNot(b, c), abnc.Count());

  // AssignUnionMaskedCount: out == (a ∪ b) ∩ c and the returned count
  // matches.
  Bitset out;
  const Bitset masked = (a | b) & c;
  EXPECT_EQ(out.AssignUnionMaskedCount(a, b, c), masked.Count());
  EXPECT_TRUE(out == masked);
  EXPECT_EQ(out.size(), n);

  // AssignUnion: out == a ∪ b, including reassignment from a stale size.
  Bitset u(3);
  u.AssignUnion(a, b);
  EXPECT_TRUE(u == (a | b));
  EXPECT_EQ(u.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetFusedOpsTest,
                         ::testing::Values(1, 63, 64, 65, 129, 1000, 4096));

TEST(BitsetWordsTest, WordsExposeSetBits) {
  Bitset b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  const std::vector<uint64_t>& w = b.words();
  ASSERT_EQ(w.size(), 3u);  // ceil(130/64)
  EXPECT_EQ(w[0], uint64_t{1});
  EXPECT_EQ(w[1], uint64_t{1});
  EXPECT_EQ(w[2], uint64_t{1} << (129 - 128));
}

TEST(BitsetWordsTest, AdoptWordsRoundTrip) {
  Bitset src(200);
  for (size_t i = 0; i < 200; i += 7) src.Set(i);
  std::vector<uint64_t> w = src.words();

  Bitset dst;  // adopting re-sizes the target, whatever it was before
  ASSERT_TRUE(dst.AdoptWords(200, std::move(w)));
  EXPECT_TRUE(dst == src);
  EXPECT_EQ(dst.size(), 200u);
}

TEST(BitsetWordsTest, AdoptWordsRejectsWrongWordCount) {
  Bitset b;
  EXPECT_FALSE(b.AdoptWords(65, std::vector<uint64_t>(1, 0)));   // needs 2
  EXPECT_FALSE(b.AdoptWords(64, std::vector<uint64_t>(2, 0)));   // needs 1
  EXPECT_TRUE(b.AdoptWords(64, std::vector<uint64_t>(1, ~0ull)));
  EXPECT_EQ(b.Count(), 64u);
}

TEST(BitsetWordsTest, AdoptWordsRejectsBitsBeyondUniverse) {
  // Universe of 70 bits: the tail word may only use its low 6 bits. A set
  // bit beyond that is corrupt input (snapshot raw blocks feed this path),
  // not something to silently mask off.
  std::vector<uint64_t> w(2, 0);
  w[1] = uint64_t{1} << 6;  // bit 70 — one past the universe
  Bitset b;
  EXPECT_FALSE(b.AdoptWords(70, std::move(w)));

  std::vector<uint64_t> ok(2, 0);
  ok[1] = (uint64_t{1} << 6) - 1;  // bits 64..69 — all legal
  EXPECT_TRUE(b.AdoptWords(70, std::move(ok)));
  EXPECT_EQ(b.Count(), 6u);
}

}  // namespace
}  // namespace vexus
