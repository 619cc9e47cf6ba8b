#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"

namespace vexus::index {
namespace {

using mining::GroupId;
using mining::GroupStore;
using mining::UserGroup;

/// Random overlapping groups over `n_users`.
GroupStore RandomStore(size_t n_groups, size_t n_users, uint64_t seed) {
  vexus::Rng rng(seed);
  GroupStore store(n_users);
  for (size_t g = 0; g < n_groups; ++g) {
    Bitset members(n_users);
    uint32_t start = rng.UniformU32(static_cast<uint32_t>(n_users));
    uint32_t len =
        10 + rng.UniformU32(static_cast<uint32_t>(n_users / 4));
    for (uint32_t i = 0; i < len; ++i) {
      members.Set((start + i) % n_users);
    }
    store.Add(UserGroup(
        {{0, static_cast<data::ValueId>(g)}}, std::move(members)));
  }
  return store;
}

InvertedIndex::Options FullOptions() {
  InvertedIndex::Options opt;
  opt.materialization_fraction = 1.0;
  opt.min_neighbors = 1;
  return opt;
}

TEST(InvertedIndexTest, FullIndexContainsAllOverlappingPairs) {
  GroupStore store = RandomStore(20, 300, 3);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  for (GroupId g = 0; g < store.size(); ++g) {
    std::set<GroupId> found;
    for (const Neighbor& nb : idx->Neighbors(g)) found.insert(nb.group);
    for (GroupId h = 0; h < store.size(); ++h) {
      if (h == g) continue;
      bool overlap =
          store.group(g).members().IntersectCount(store.group(h).members()) >
          0;
      EXPECT_EQ(found.count(h) > 0, overlap)
          << "g=" << g << " h=" << h;
    }
  }
}

TEST(InvertedIndexTest, SimilaritiesAreExactJaccard) {
  GroupStore store = RandomStore(15, 200, 5);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  for (GroupId g = 0; g < store.size(); ++g) {
    for (const Neighbor& nb : idx->Neighbors(g)) {
      double truth =
          store.group(g).members().Jaccard(store.group(nb.group).members());
      EXPECT_NEAR(nb.similarity, truth, 1e-6);
    }
  }
}

TEST(InvertedIndexTest, PostingsSortedDescending) {
  GroupStore store = RandomStore(25, 400, 7);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  for (GroupId g = 0; g < store.size(); ++g) {
    const auto& list = idx->Neighbors(g);
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i - 1].similarity, list[i].similarity);
    }
  }
}

TEST(InvertedIndexTest, MaterializationFractionTruncates) {
  GroupStore store = RandomStore(60, 500, 9);
  InvertedIndex::Options opt;
  opt.materialization_fraction = 0.10;
  opt.min_neighbors = 2;
  auto idx = InvertedIndex::Build(store, opt);
  ASSERT_TRUE(idx.ok());
  size_t keep = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(0.10 * (store.size() - 1))));
  for (GroupId g = 0; g < store.size(); ++g) {
    EXPECT_LE(idx->Neighbors(g).size(), keep);
  }
  EXPECT_LT(idx->build_stats().postings, idx->build_stats().full_postings);
}

TEST(InvertedIndexTest, TruncationKeepsTopNeighbors) {
  GroupStore store = RandomStore(40, 300, 11);
  auto full = InvertedIndex::Build(store, FullOptions());
  InvertedIndex::Options opt;
  opt.materialization_fraction = 0.2;
  opt.min_neighbors = 1;
  auto trunc = InvertedIndex::Build(store, opt);
  ASSERT_TRUE(full.ok() && trunc.ok());
  for (GroupId g = 0; g < store.size(); ++g) {
    const auto& t = trunc->Neighbors(g);
    const auto& f = full->Neighbors(g);
    ASSERT_LE(t.size(), f.size());
    // The truncated list is exactly the prefix of the full ranking.
    for (size_t i = 0; i < t.size(); ++i) {
      EXPECT_FLOAT_EQ(t[i].similarity, f[i].similarity);
    }
  }
}

TEST(InvertedIndexTest, TopKReturnsPrefix) {
  GroupStore store = RandomStore(20, 200, 15);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  auto top3 = idx->TopK(0, 3);
  EXPECT_LE(top3.size(), 3u);
  const auto& all = idx->Neighbors(0);
  for (size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].group, all[i].group);
  }
  // k beyond the list size returns everything.
  EXPECT_EQ(idx->TopK(0, 10000).size(), all.size());
}

TEST(InvertedIndexTest, ParallelBuildMatchesSerial) {
  GroupStore store = RandomStore(40, 400, 17);
  InvertedIndex::Options serial = FullOptions();
  InvertedIndex::Options parallel = FullOptions();
  parallel.num_threads = 4;
  auto a = InvertedIndex::Build(store, serial);
  auto b = InvertedIndex::Build(store, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  for (GroupId g = 0; g < store.size(); ++g) {
    const auto& la = a->Neighbors(g);
    const auto& lb = b->Neighbors(g);
    ASSERT_EQ(la.size(), lb.size());
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].group, lb[i].group);
      EXPECT_FLOAT_EQ(la[i].similarity, lb[i].similarity);
    }
  }
}

TEST(InvertedIndexTest, InvalidOptionsRejected) {
  GroupStore store = RandomStore(5, 50, 23);
  InvertedIndex::Options opt;
  opt.materialization_fraction = 1.5;
  EXPECT_FALSE(InvertedIndex::Build(store, opt).ok());
}

TEST(InvertedIndexTest, SingleGroupHasNoNeighbors) {
  GroupStore store(10);
  store.Add(UserGroup({}, Bitset::FromVector(10, {1})));
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE(idx->Neighbors(0).empty());
}

TEST(InvertedIndexTest, EmptyStore) {
  GroupStore store(10);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->num_groups(), 0u);
}

TEST(InvertedIndexTest, StatsPopulated) {
  GroupStore store = RandomStore(20, 200, 25);
  auto idx = InvertedIndex::Build(store, FullOptions());
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(idx->build_stats().postings, 0u);
  EXPECT_GT(idx->build_stats().full_postings, 0u);
  EXPECT_GT(idx->build_stats().memory_bytes, 0u);
  EXPECT_GE(idx->build_stats().elapsed_ms, 0.0);
}

void ExpectIndexesIdentical(const InvertedIndex& a, const InvertedIndex& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (GroupId g = 0; g < a.num_groups(); ++g) {
    const auto& la = a.Neighbors(g);
    const auto& lb = b.Neighbors(g);
    ASSERT_EQ(la.size(), lb.size()) << "group " << g;
    for (size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].group, lb[i].group) << "group " << g << " slot " << i;
      // Bit-exact, not approximately equal: the parallel build must fold
      // per-chunk results in deterministic order, or snapshots built with
      // different thread counts would diverge.
      EXPECT_EQ(la[i].similarity, lb[i].similarity)
          << "group " << g << " slot " << i;
    }
  }
}

TEST(InvertedIndexParallelTest, CooccurrenceBuildMatchesSerialExactly) {
  GroupStore store = RandomStore(60, 500, 7);
  InvertedIndex::Options serial = FullOptions();
  InvertedIndex::Options parallel = FullOptions();
  parallel.num_threads = 4;
  auto a = InvertedIndex::Build(store, serial);
  auto b = InvertedIndex::Build(store, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIndexesIdentical(*a, *b);
}

}  // namespace
}  // namespace vexus::index
