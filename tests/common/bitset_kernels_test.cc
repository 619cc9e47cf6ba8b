// Scalar-vs-SIMD parity fuzz for the dispatched bitset kernels, plus the
// loud-failure regression for mismatched universes (pre-fix, Release builds
// compiled the size DCHECK out and read out of bounds).
#include "common/bitset_kernels.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/random.h"

namespace vexus {
namespace {

namespace bk = bitset_kernels;

/// Kernel tiers the running CPU can actually execute.
std::vector<bk::Level> SupportedLevels() {
  std::vector<bk::Level> levels;
  for (bk::Level l : {bk::Level::kScalar, bk::Level::kAvx2,
                      bk::Level::kAvx512}) {
    if (bk::LevelSupported(l)) levels.push_back(l);
  }
  return levels;
}

/// Pins the dispatch level for a scope, restoring the resolved default.
struct ScopedLevel {
  explicit ScopedLevel(bk::Level l) { bk::internal::SetLevelForTesting(l); }
  ~ScopedLevel() { bk::internal::ResetLevelForTesting(); }
};

/// Random word array; `density` is the per-bit probability of being set.
std::vector<uint64_t> RandomWords(Rng* rng, size_t n, double density) {
  std::vector<uint64_t> w(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (density >= 0.49 && density <= 0.51) {
      w[i] = rng->NextU64();
    } else {
      for (int b = 0; b < 64; ++b) {
        if (rng->Bernoulli(density)) w[i] |= uint64_t{1} << b;
      }
    }
  }
  return w;
}

// Hand-written references, independent of the kernel TU.
size_t RefCount(const std::vector<uint64_t>& a) {
  size_t c = 0;
  for (uint64_t w : a) c += static_cast<size_t>(__builtin_popcountll(w));
  return c;
}

TEST(BitsetKernelsTest, LevelNamesAndActive) {
  EXPECT_STREQ(bk::LevelName(bk::Level::kScalar), "scalar");
  EXPECT_STREQ(bk::LevelName(bk::Level::kAvx2), "avx2");
  EXPECT_STREQ(bk::LevelName(bk::Level::kAvx512), "avx512");
  EXPECT_TRUE(bk::LevelSupported(bk::Level::kScalar));
  EXPECT_TRUE(bk::LevelSupported(bk::ActiveLevel()));
}

TEST(BitsetKernelsTest, SetLevelForTestingSwitchesActive) {
  for (bk::Level l : SupportedLevels()) {
    ScopedLevel pin(l);
    EXPECT_EQ(bk::ActiveLevel(), l) << bk::LevelName(l);
  }
  EXPECT_TRUE(bk::LevelSupported(bk::ActiveLevel()));
}

// The headline gate: 10k+ random word-array pairs × every kernel × every
// density regime × every dispatch tier this CPU supports, each checked
// against a hand-written scalar reference. Word counts sweep 0..67 (both
// sides of every vector-width boundary plus the scalar tail) and a few
// multi-KiB arrays for the steady-state loop.
TEST(BitsetKernelsTest, ParityFuzzAllLevelsAllDensities) {
  const std::vector<bk::Level> levels = SupportedLevels();
  const double densities[] = {0.0005, 0.01, 0.125, 0.5, 0.95};
  size_t pairs_checked = 0;
  for (bk::Level level : levels) {
    ScopedLevel pin(level);
    uint64_t seed = 0xbed5e715ULL + static_cast<uint64_t>(level) * 977;
    for (double density : densities) {
      Rng rng(seed ^ static_cast<uint64_t>(density * 1e6));
      const size_t kPairs = 700;
      for (size_t iter = 0; iter < kPairs; ++iter) {
        // Mostly boundary-sized arrays, occasionally big ones.
        size_t n = iter % 50 == 0 ? 300 + rng.UniformU32(100)
                                  : rng.UniformU32(68);
        auto a = RandomWords(&rng, n, density);
        auto b = RandomWords(&rng, n, density);
        auto c = RandomWords(&rng, n, density);

        size_t ref_count = RefCount(a);
        size_t ref_and = 0, ref_andnot = 0, ref_andandnot = 0, ref_or = 0;
        for (size_t i = 0; i < n; ++i) {
          ref_and += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
          ref_andnot +=
              static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
          ref_andandnot += static_cast<size_t>(
              __builtin_popcountll(a[i] & b[i] & ~c[i]));
          ref_or += static_cast<size_t>(__builtin_popcountll(a[i] | b[i]));
        }

        SCOPED_TRACE(testing::Message() << bk::LevelName(level) << " density="
                                        << density << " n=" << n);
        EXPECT_EQ(bk::Count(a.data(), n), ref_count);
        EXPECT_EQ(bk::AndCount(a.data(), b.data(), n), ref_and);
        EXPECT_EQ(bk::AndNotCount(a.data(), b.data(), n), ref_andnot);
        EXPECT_EQ(bk::AndAndNotCount(a.data(), b.data(), c.data(), n),
                  ref_andandnot);

        std::vector<uint64_t> out(n, 0xdeadbeefULL);
        bk::Or(a.data(), b.data(), out.data(), n);
        for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] | b[i]);

        EXPECT_EQ(bk::OrCountInto(a.data(), b.data(), out.data(), n), ref_or);
        for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], a[i] | b[i]);

        size_t ref_oraci = 0;
        for (size_t i = 0; i < n; ++i) {
          ref_oraci += static_cast<size_t>(
              __builtin_popcountll((a[i] | b[i]) & c[i]));
        }
        EXPECT_EQ(
            bk::OrAndCountInto(a.data(), b.data(), c.data(), out.data(), n),
            ref_oraci);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], (a[i] | b[i]) & c[i]);
        }

        size_t inter = 0, uni = 0;
        bk::AndOrCount(a.data(), b.data(), n, &inter, &uni);
        EXPECT_EQ(inter, ref_and);
        EXPECT_EQ(uni, ref_or);

        ++pairs_checked;
        if (testing::Test::HasFailure()) return;  // don't spam 10k failures
      }
    }
  }
  // 700 pairs × 5 densities × ≥3 tiers on CI hardware (≥2 without AVX-512).
  EXPECT_GE(pairs_checked, 10000u / (levels.size() >= 3 ? 1 : 2));
}

// In-place aliasing contract: out == a (or b) must work for the pure
// bitwise kernels (Bitset::operator|= relies on it).
TEST(BitsetKernelsTest, OrSupportsAliasedOutput) {
  for (bk::Level level : SupportedLevels()) {
    ScopedLevel pin(level);
    Rng rng(99);
    auto a = RandomWords(&rng, 37, 0.3);
    auto b = RandomWords(&rng, 37, 0.3);
    auto expect = a;
    for (size_t i = 0; i < a.size(); ++i) expect[i] |= b[i];
    bk::Or(a.data(), b.data(), a.data(), a.size());
    EXPECT_EQ(a, expect) << bk::LevelName(level);
  }
}

// Satellite bugfix regression: binary ops over mismatched universes used to
// pass silently in Release (DCHECK compiled out) and read out of bounds in
// the word loops. The kernel entry points in Bitset now fail loudly in
// every build mode.
TEST(BitsetKernelsDeathTest, MismatchedUniverseDiesLoudly) {
  Bitset a(128);
  Bitset b(256);
  a.Set(5);
  b.Set(200);
  ASSERT_DEATH({ (void)a.IntersectCount(b); }, "universe mismatch");
  ASSERT_DEATH({ (void)a.CountAndNot(b); }, "universe mismatch");
  ASSERT_DEATH({ (void)a.IntersectCountAndNot(b, a); }, "universe mismatch");
  ASSERT_DEATH({ (void)a.IntersectCountAndNot(a, b); }, "universe mismatch");
  ASSERT_DEATH({ (void)a.Jaccard(b); }, "universe mismatch");
  ASSERT_DEATH({ a |= b; }, "universe mismatch");
  ASSERT_DEATH({ a.AssignUnion(a, b); }, "universe mismatch");
  ASSERT_DEATH(
      {
        Bitset out;
        (void)out.AssignUnionCount(a, b);
      },
      "universe mismatch");
  ASSERT_DEATH(
      {
        Bitset out;
        (void)out.AssignUnionMaskedCount(a, a, b);
      },
      "universe mismatch");
}

}  // namespace
}  // namespace vexus
