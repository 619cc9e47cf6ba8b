// EvalCoveragePartials — the shard-backend side of the multi-box gather
// (DESIGN.md §16). Two properties carry the whole design:
//
//   1. On a full store it reproduces the direct |cand ∩ anchor ∩ ¬rest|
//      integers (the SwapObjective trial counts).
//   2. On S slice stores (members restricted to word-aligned shard ranges)
//      the per-slice partials sum to the full-store count, and folding that
//      sum through SwapObjective::TrialFromCovered reproduces the local
//      whole-universe Trial() bit for bit — so a gather over backends folds
//      to byte-identical selections.
#include "core/partial_eval.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset.h"
#include "common/random.h"
#include "common/shard_map.h"
#include "core/greedy_eval.h"
#include "core/snapshot.h"
#include "index/inverted_index.h"
#include "index/similarity.h"

namespace vexus::core {
namespace {

using mining::GroupId;
using mining::GroupStore;
using mining::UserGroup;

GroupStore MakeStore(size_t n_groups, size_t n_users, uint64_t seed) {
  GroupStore store(n_users);
  vexus::Rng rng(seed);
  for (size_t g = 0; g < n_groups; ++g) {
    Bitset members(n_users);
    uint32_t start = rng.UniformU32(static_cast<uint32_t>(n_users));
    uint32_t len = 10 + rng.UniformU32(static_cast<uint32_t>(n_users / 3));
    for (uint32_t i = 0; i < len; ++i) members.Set((start + i) % n_users);
    store.Add(UserGroup({{0, static_cast<data::ValueId>(g)}},
                        std::move(members)));
  }
  return store;
}

/// The backend's store shape: a universe of the shard's users only, local
/// id = global id − begin — exactly what LoadSnapshotShard produces.
GroupStore SliceStore(const GroupStore& full, uint32_t begin, uint32_t end) {
  GroupStore slice(end - begin);
  for (size_t g = 0; g < full.size(); ++g) {
    const Bitset& bits = full.group(g).members();
    Bitset restricted(end - begin);
    for (uint32_t u = begin; u < end; ++u) {
      if (bits.Test(u)) restricted.Set(u - begin);
    }
    slice.Add(UserGroup({{0, static_cast<data::ValueId>(g)}},
                        std::move(restricted)));
  }
  return slice;
}

/// Direct (definitional) trial count on an arbitrary store.
uint32_t DirectCount(const GroupStore& store, const PartialEvalInput& in,
                     size_t trial) {
  const size_t n = store.num_users();
  const size_t k = in.selection.size();
  uint32_t cand_gid = in.trials[2 * trial];
  uint32_t slot = in.trials[2 * trial + 1];
  Bitset rest(n);
  for (size_t i = 0; i < k; ++i) {
    if (i == slot) continue;
    const Bitset& m = store.group(in.selection[i]).members();
    for (size_t u = 0; u < n; ++u) {
      if (m.Test(u)) rest.Set(u);
    }
  }
  const Bitset& cand = store.group(cand_gid).members();
  Bitset anchor(n);
  anchor.SetAll();
  if (in.anchor.has_value()) {
    anchor = store.group(*in.anchor).members();
  }
  uint32_t count = 0;
  for (size_t u = 0; u < n; ++u) {
    if (cand.Test(u) && anchor.Test(u) && !rest.Test(u)) ++count;
  }
  return count;
}

PartialEvalInput MakeInput(const GroupStore& store, bool anchored,
                           uint64_t seed) {
  vexus::Rng rng(seed);
  PartialEvalInput in;
  if (anchored) in.anchor = 0;
  in.selection = {1, 2, 3, 4};
  for (uint32_t cand = 5; cand < 13 && cand < store.size(); ++cand) {
    in.trials.push_back(cand);
    in.trials.push_back(rng.UniformU32(4));
  }
  return in;
}

TEST(PartialEvalTest, MatchesDirectCountOnFullStore) {
  for (bool anchored : {false, true}) {
    GroupStore store = MakeStore(16, 300, 11);
    PartialEvalInput in = MakeInput(store, anchored, 42);
    auto partials = EvalCoveragePartials(store, in);
    ASSERT_TRUE(partials.ok()) << partials.status().ToString();
    ASSERT_EQ(partials->size(), in.trials.size() / 2);
    for (size_t t = 0; t < partials->size(); ++t) {
      EXPECT_EQ((*partials)[t], DirectCount(store, in, t))
          << "anchored=" << anchored << " trial=" << t;
    }
  }
}

TEST(PartialEvalTest, SlicePartialsSumToFullStoreCount) {
  const size_t n_users = 500;
  GroupStore store = MakeStore(20, n_users, 23);
  for (size_t num_shards : {2u, 4u}) {
    ShardMap map(n_users, num_shards);
    ASSERT_EQ(map.num_shards(), num_shards);
    for (bool anchored : {false, true}) {
      PartialEvalInput in = MakeInput(store, anchored, 99 + num_shards);
      auto full = EvalCoveragePartials(store, in);
      ASSERT_TRUE(full.ok());
      std::vector<uint32_t> sum(full->size(), 0);
      for (size_t s = 0; s < num_shards; ++s) {
        GroupStore slice =
            SliceStore(store, static_cast<uint32_t>(map.shard(s).user_begin),
                       static_cast<uint32_t>(map.shard(s).user_end));
        auto part = EvalCoveragePartials(slice, in);
        ASSERT_TRUE(part.ok()) << part.status().ToString();
        ASSERT_EQ(part->size(), full->size());
        for (size_t t = 0; t < part->size(); ++t) sum[t] += (*part)[t];
      }
      for (size_t t = 0; t < full->size(); ++t) {
        EXPECT_EQ(sum[t], (*full)[t])
            << "shards=" << num_shards << " anchored=" << anchored
            << " trial=" << t;
      }
    }
  }
}

// The fleet's answer must be the local answer: for every admissible trial,
// the shard-order sum of the backends' partials — each computed on a slice
// cold-started from its own snapshot section, exactly as a shard backend
// does — folded through TrialFromCovered equals the whole-universe
// SwapObjective::Trial bit for bit. S=1 is the single-section file.
TEST(PartialEvalTest, SliceMatchesInProcessShardPartials) {
  const size_t n_users = 448;  // 7 words: uneven word splits for S = 3, 4
  GroupStore store = MakeStore(18, n_users, 31);
  auto index = index::InvertedIndex::Build(store, {});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::vector<GroupId> pool(store.size());
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<GroupId>(i);
  std::vector<double> affinity(pool.size());
  vexus::Rng rng(5);
  for (double& a : affinity) a = rng.UniformDouble();
  index::PairwiseSimCache sims(&store, &pool);
  const std::vector<uint32_t> selection = {1, 2, 3, 4};
  const std::vector<size_t> selected(selection.begin(), selection.end());

  for (size_t num_shards : {1u, 2u, 3u, 4u}) {
    const std::string path = ::testing::TempDir() + "partial_eval_s" +
                             std::to_string(num_shards) + ".snap";
    SnapshotSaveOptions save;
    save.num_shards = num_shards;
    save.sync = false;
    ASSERT_TRUE(SaveSnapshot(store, *index, path, save).ok()) << path;
    std::vector<GroupStore> slices;
    for (size_t s = 0; s < num_shards; ++s) {
      auto shard = LoadSnapshotShard(path, s);
      ASSERT_TRUE(shard.ok()) << "shards=" << num_shards << " shard=" << s
                              << ": " << shard.status().ToString();
      ASSERT_EQ(shard->num_shards, num_shards);
      slices.push_back(std::move(shard->groups));
    }
    std::remove(path.c_str());

    for (bool anchored : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << num_shards << " anchored=" << anchored);
      const Bitset& anchor_bits = store.group(0).members();
      SwapObjective eval(&store, &pool, anchored ? &anchor_bits : nullptr,
                         &affinity, {0.5, 0.2}, &sims);
      eval.Reset(selected);

      // Every admissible trial: each non-selected candidate at every slot.
      PartialEvalInput in;
      if (anchored) in.anchor = 0;
      in.selection = selection;
      for (uint32_t cand = 0; cand < store.size(); ++cand) {
        if (std::find(selection.begin(), selection.end(), cand) !=
            selection.end()) {
          continue;
        }
        for (uint32_t slot = 0; slot < selection.size(); ++slot) {
          in.trials.push_back(cand);
          in.trials.push_back(slot);
        }
      }
      const size_t num_trials = in.trials.size() / 2;
      std::vector<size_t> newly(num_trials, 0);
      for (const GroupStore& slice : slices) {
        auto part = EvalCoveragePartials(slice, in);
        ASSERT_TRUE(part.ok()) << part.status().ToString();
        ASSERT_EQ(part->size(), num_trials);
        for (size_t t = 0; t < num_trials; ++t) newly[t] += (*part)[t];
      }
      for (size_t t = 0; t < num_trials; ++t) {
        const size_t cand = in.trials[2 * t];  // pool position == gid here
        const size_t slot = in.trials[2 * t + 1];
        const double fleet = eval.TrialFromCovered(slot, cand, newly[t]);
        const double local = eval.Trial(slot, cand);
        EXPECT_EQ(std::memcmp(&fleet, &local, sizeof(double)), 0)
            << "trial=" << t << " fleet=" << fleet << " local=" << local;
      }
    }
  }
}

TEST(PartialEvalTest, RejectsMalformedInput) {
  GroupStore store = MakeStore(8, 128, 5);
  PartialEvalInput in;
  in.selection = {1, 2};
  in.trials = {3, 0};

  PartialEvalInput empty_sel = in;
  empty_sel.selection.clear();
  EXPECT_FALSE(EvalCoveragePartials(store, empty_sel).ok());

  PartialEvalInput odd = in;
  odd.trials = {3};
  EXPECT_FALSE(EvalCoveragePartials(store, odd).ok());

  PartialEvalInput no_trials = in;
  no_trials.trials.clear();
  EXPECT_FALSE(EvalCoveragePartials(store, no_trials).ok());

  PartialEvalInput bad_anchor = in;
  bad_anchor.anchor = 1000;
  EXPECT_FALSE(EvalCoveragePartials(store, bad_anchor).ok());

  PartialEvalInput bad_sel = in;
  bad_sel.selection = {1, 999};
  EXPECT_FALSE(EvalCoveragePartials(store, bad_sel).ok());

  PartialEvalInput bad_cand = in;
  bad_cand.trials = {999, 0};
  EXPECT_FALSE(EvalCoveragePartials(store, bad_cand).ok());

  PartialEvalInput bad_slot = in;
  bad_slot.trials = {3, 7};
  EXPECT_FALSE(EvalCoveragePartials(store, bad_slot).ok());

  EXPECT_TRUE(EvalCoveragePartials(store, in).ok());
}

}  // namespace
}  // namespace vexus::core
