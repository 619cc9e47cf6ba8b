#include "mining/stream_mining.h"

#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"

namespace vexus::mining {
namespace {

TEST(StreamMinerTest, CountsSingletonsExactlyWhenAllFit) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.01;  // bucket width 100; stream shorter than one bucket
  StreamMiner miner(cfg);
  for (int i = 0; i < 50; ++i) {
    miner.AddTransaction({0});
    if (i % 2 == 0) miner.AddTransaction({1});
  }
  EXPECT_EQ(miner.EstimatedCount({0}), 50u);
  EXPECT_EQ(miner.EstimatedCount({1}), 25u);
  EXPECT_EQ(miner.EstimatedCount({2}), 0u);
}

TEST(StreamMinerTest, TracksPairsAndTriples) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.01;
  cfg.max_itemset = 3;
  StreamMiner miner(cfg);
  for (int i = 0; i < 30; ++i) miner.AddTransaction({1, 2, 3});
  EXPECT_EQ(miner.EstimatedCount({1, 2}), 30u);
  EXPECT_EQ(miner.EstimatedCount({2, 3}), 30u);
  EXPECT_EQ(miner.EstimatedCount({1, 2, 3}), 30u);
}

TEST(StreamMinerTest, MaxItemsetCapsDepth) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.01;
  cfg.max_itemset = 2;
  StreamMiner miner(cfg);
  for (int i = 0; i < 10; ++i) miner.AddTransaction({1, 2, 3});
  EXPECT_GT(miner.EstimatedCount({1, 2}), 0u);
  EXPECT_EQ(miner.EstimatedCount({1, 2, 3}), 0u);
}

TEST(StreamMinerTest, InfrequentItemsEvicted) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.1;  // bucket width 10
  StreamMiner miner(cfg);
  // Item 99 appears once early, then 100 transactions without it.
  miner.AddTransaction({99});
  for (int i = 0; i < 100; ++i) miner.AddTransaction({1});
  EXPECT_EQ(miner.EstimatedCount({99}), 0u);
  EXPECT_GT(miner.stats().evictions, 0u);
  EXPECT_GT(miner.EstimatedCount({1}), 80u);
}

TEST(StreamMinerTest, NoFalseNegativesGuarantee) {
  // Lossy counting: any itemset with true support >= s*N must be reported
  // at threshold s (counts may be underestimated by at most eps*N).
  StreamMiner::Config cfg;
  cfg.epsilon = 0.05;
  cfg.max_itemset = 2;
  StreamMiner miner(cfg);
  vexus::Rng rng(3);
  std::map<std::vector<DescriptorId>, size_t> truth;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    std::vector<DescriptorId> txn;
    // Item 0 in 40% of transactions, item 1 in 30%, both -> pair ~12%.
    if (rng.Bernoulli(0.4)) txn.push_back(0);
    if (rng.Bernoulli(0.3)) txn.push_back(1);
    if (rng.Bernoulli(0.02)) txn.push_back(2 + rng.UniformU32(50));
    if (txn.empty()) txn.push_back(100);
    miner.AddTransaction(txn);
    ++truth[txn];
    if (txn.size() >= 2) {
      for (DescriptorId d : txn) ++truth[{d}];
    } else {
      // singleton already counted via txn
    }
  }
  // Query at s = 0.25: {0} (~40%) and {1} (~30%) must be present.
  auto frequent = miner.Frequent(0.25);
  bool has0 = false, has1 = false;
  for (const auto& f : frequent) {
    if (f.items == std::vector<DescriptorId>{0}) has0 = true;
    if (f.items == std::vector<DescriptorId>{1}) has1 = true;
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
}

TEST(StreamMinerTest, CountsAreLowerBounds) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.02;
  StreamMiner miner(cfg);
  constexpr size_t kTrue = 500;
  for (size_t i = 0; i < kTrue; ++i) miner.AddTransaction({7});
  for (size_t i = 0; i < 1500; ++i) miner.AddTransaction({8});
  size_t est = miner.EstimatedCount({7});
  EXPECT_LE(est, kTrue);
  // Underestimation bounded by eps * N = 0.02 * 2000 = 40.
  EXPECT_GE(est, kTrue - 40);
}

TEST(StreamMinerTest, StatsTrackProgress) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.1;
  StreamMiner miner(cfg);
  for (int i = 0; i < 25; ++i) miner.AddTransaction({0, 1});
  EXPECT_EQ(miner.stats().transactions, 25u);
  EXPECT_GT(miner.stats().lattice_entries, 0u);
  EXPECT_GE(miner.stats().peak_entries, miner.stats().lattice_entries);
}

TEST(StreamMinerTest, ExportGroupsResolvesExtents) {
  // Build a tiny catalog-compatible world: 4 users, 2 descriptors.
  data::Dataset ds;
  auto a = ds.schema().AddCategorical("a");
  for (int i = 0; i < 4; ++i) ds.users().AddUser(StrCat("u", i));
  ds.users().SetValueByName(0, a, "x");
  ds.users().SetValueByName(1, a, "x");
  ds.users().SetValueByName(2, a, "x");
  ds.users().SetValueByName(3, a, "y");
  auto cat = DescriptorCatalog::Build(ds);

  StreamMiner::Config cfg;
  cfg.epsilon = 0.05;
  StreamMiner miner(cfg);
  for (data::UserId u = 0; u < 4; ++u) {
    miner.AddTransaction(cat.Transaction(u));
  }
  GroupStore store(4);
  miner.ExportGroups(cat, 0.5, &store);
  // "x" (support 3/4) qualifies at s=0.5; "y" (1/4) does not.
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.group(0).size(), 3u);
}

TEST(StreamMinerTest, EmptyTransactionIsHarmless) {
  StreamMiner::Config cfg;
  cfg.epsilon = 0.1;
  StreamMiner miner(cfg);
  miner.AddTransaction({});
  miner.AddTransaction({1});
  EXPECT_EQ(miner.stats().transactions, 2u);
  EXPECT_EQ(miner.EstimatedCount({1}), 1u);
}

}  // namespace
}  // namespace vexus::mining
