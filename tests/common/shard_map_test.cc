// ShardMap boundary algebra: word-aligned, contiguous, non-empty ranges
// that are a pure function of (num_users, num_shards) — the property the
// fleet partition (snapshot group sections, shard backends, the gather
// coordinator) stands on.
#include "common/shard_map.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace vexus {
namespace {

TEST(ShardMapTest, PartitionsWordsContiguously) {
  for (size_t users : {1u, 63u, 64u, 65u, 1000u, 278858u}) {
    for (size_t shards : {1u, 2u, 4u, 8u, 64u}) {
      ShardMap map(users, shards);
      const size_t words = (users + 63) / 64;
      ASSERT_GE(map.num_shards(), 1u);
      ASSERT_LE(map.num_shards(), std::max<size_t>(1, words));
      EXPECT_EQ(map.shard(0).user_begin, 0u);
      EXPECT_EQ(map.shard(0).word_begin, 0u);
      for (size_t s = 0; s < map.num_shards(); ++s) {
        const ShardMap::Range& r = map.shard(s);
        EXPECT_EQ(r.user_begin, r.word_begin * 64) << "word alignment";
        EXPECT_GT(r.word_end, r.word_begin) << "no empty shard";
        if (s + 1 < map.num_shards()) {
          EXPECT_EQ(map.shard(s + 1).word_begin, r.word_end);
          EXPECT_EQ(map.shard(s + 1).user_begin, r.user_end);
          EXPECT_EQ(r.user_end, r.word_end * 64);
        }
      }
      EXPECT_EQ(map.shard(map.num_shards() - 1).word_end, words);
      EXPECT_EQ(map.shard(map.num_shards() - 1).user_end, users);
    }
  }
}

TEST(ShardMapTest, IsPureFunctionOfInputs) {
  ShardMap a(278858, 8), b(278858, 8);
  EXPECT_EQ(a, b);
}

TEST(ShardMapTest, ClampsShardCountToWordCount) {
  ShardMap tiny(10, 16);  // one word of universe → one shard
  EXPECT_EQ(tiny.num_shards(), 1u);
  ShardMap two(128, 100);  // two words → at most two shards
  EXPECT_EQ(two.num_shards(), 2u);
  ShardMap zero(0, 4);
  EXPECT_EQ(zero.num_shards(), 1u);
  EXPECT_EQ(zero.shard(0).num_words(), 0u);
}

TEST(ShardMapTest, ShardOfAgreesWithRanges) {
  for (size_t shards : {1u, 3u, 7u, 8u}) {
    ShardMap map(10000, shards);
    for (uint32_t u = 0; u < 10000; u += 17) {
      size_t s = map.ShardOf(u);
      EXPECT_GE(u, map.shard(s).user_begin);
      EXPECT_LT(u, map.shard(s).user_end);
    }
    EXPECT_EQ(map.ShardOf(0), 0u);
    EXPECT_EQ(map.ShardOf(9999), map.num_shards() - 1);
  }
}

}  // namespace
}  // namespace vexus
