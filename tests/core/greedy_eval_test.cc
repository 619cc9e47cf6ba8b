// SwapObjective oracle tests + greedy determinism tests.
//
// The incremental evaluator is only allowed to differ from the from-scratch
// oracle by float reassociation (the coverage counts are exact integers in
// both paths; the diversity/affinity sums re-add the same cached floats in a
// different order), so the pinned tolerance is 1e-9 — six orders of
// magnitude above the observed noise, six below any real bug.
#include "core/greedy_eval.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "index/similarity.h"

namespace vexus::core {
namespace {

using mining::GroupId;
using mining::GroupStore;
using mining::UserGroup;

struct World {
  World(size_t n_groups, size_t n_users, uint64_t seed)
      : store(n_users) {
    vexus::Rng rng(seed);
    for (size_t g = 0; g < n_groups; ++g) {
      Bitset members(n_users);
      uint32_t start = rng.UniformU32(static_cast<uint32_t>(n_users));
      uint32_t len = 15 + rng.UniformU32(static_cast<uint32_t>(n_users / 3));
      for (uint32_t i = 0; i < len; ++i) members.Set((start + i) % n_users);
      store.Add(UserGroup({{0, static_cast<data::ValueId>(g)}},
                          std::move(members)));
    }
    index::InvertedIndex::Options opt;
    opt.materialization_fraction = 1.0;
    opt.min_neighbors = 1;
    index = std::make_unique<index::InvertedIndex>(
        std::move(index::InvertedIndex::Build(store, opt)).ValueOrDie());
    data::AttributeId a0 = ds.schema().AddCategorical("a0");
    for (size_t g = 0; g < n_groups; ++g) {
      ds.schema().attribute(a0).values().GetOrAdd(StrCat("v", g));
    }
    for (size_t u = 0; u < n_users; ++u) {
      ds.users().AddUser(StrCat("u", u));
    }
    tokens = std::make_unique<TokenSpace>(ds);
  }

  GroupStore store;
  data::Dataset ds;
  std::unique_ptr<index::InvertedIndex> index;
  std::unique_ptr<TokenSpace> tokens;
};

GreedyOptions Unbounded(size_t k = 4) {
  GreedyOptions opt;
  opt.k = k;
  opt.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
  opt.min_similarity = 0.01;
  return opt;
}

/// Randomized swap-sequence oracle: Current()/Trial() must track
/// EvaluateScratch() through arbitrary Reset/Trial/ApplySwap interleavings.
void RunOracleSequence(const GroupStore& store, const Bitset* anchor,
                       uint64_t seed) {
  const size_t n = store.size();
  std::vector<GroupId> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = static_cast<GroupId>(i);

  vexus::Rng rng(seed);
  std::vector<double> affinity(n);
  for (double& a : affinity) a = rng.UniformDouble();

  index::PairwiseSimCache sims(&store, &pool);
  SwapObjective eval(&store, &pool, anchor, &affinity,
                     {/*lambda=*/0.6, /*feedback_weight=*/0.3}, &sims);

  const size_t k = 5;
  ASSERT_GT(n, k + 2);
  std::vector<size_t> selected;
  std::vector<bool> in_selection(n, false);
  for (size_t i = 0; i < k; ++i) {
    selected.push_back(i);
    in_selection[i] = true;
  }
  eval.Reset(selected);
  EXPECT_NEAR(eval.Current(), eval.EvaluateScratch(selected), 1e-9);

  for (int iter = 0; iter < 200; ++iter) {
    size_t pos = rng.UniformU32(static_cast<uint32_t>(k));
    size_t cand = rng.UniformU32(static_cast<uint32_t>(n));
    if (in_selection[cand]) continue;

    double delta = eval.Trial(pos, cand);
    std::vector<size_t> trial_sel = selected;
    trial_sel[pos] = cand;
    double oracle = eval.EvaluateScratch(trial_sel);
    EXPECT_NEAR(delta, oracle, 1e-9)
        << "iter=" << iter << " pos=" << pos << " cand=" << cand;

    if (rng.Bernoulli(0.3)) {
      in_selection[selected[pos]] = false;
      in_selection[cand] = true;
      eval.ApplySwap(pos, cand);
      selected = trial_sel;
      EXPECT_NEAR(eval.Current(), eval.EvaluateScratch(selected), 1e-9)
          << "after applied swap, iter=" << iter;
    }
  }
}

TEST(SwapObjectiveTest, MatchesScratchOracleWithAnchor) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    World w(40, 500, seed);
    Bitset anchor = w.store.group(0).members();
    RunOracleSequence(w.store, &anchor, seed * 101 + 7);
  }
}

TEST(SwapObjectiveTest, MatchesScratchOracleUniverseCoverage) {
  for (uint64_t seed : {4u, 5u}) {
    World w(32, 400, seed);
    RunOracleSequence(w.store, /*anchor=*/nullptr, seed * 77 + 13);
  }
}

TEST(SwapObjectiveTest, ResetRebindsAfterKChange) {
  World w(20, 300, 9);
  std::vector<GroupId> pool(w.store.size());
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<GroupId>(i);
  std::vector<double> affinity(pool.size(), 0.25);
  index::PairwiseSimCache sims(&w.store, &pool);
  SwapObjective eval(&w.store, &pool, nullptr, &affinity, {0.5, 0.2}, &sims);

  std::vector<size_t> small = {0, 1, 2};
  eval.Reset(small);
  EXPECT_NEAR(eval.Current(), eval.EvaluateScratch(small), 1e-9);

  std::vector<size_t> large = {3, 4, 5, 6, 7, 8};
  eval.Reset(large);  // k changed: row matrix must re-key cleanly
  EXPECT_NEAR(eval.Current(), eval.EvaluateScratch(large), 1e-9);
  EXPECT_NEAR(eval.Trial(0, 10), [&] {
    std::vector<size_t> t = large;
    t[0] = 10;
    return eval.EvaluateScratch(t);
  }(), 1e-9);
}

TEST(GreedyDeterminismTest, IncrementalSelectsSameGroupsAsScratch) {
  // Same seeds, same swaps: the incremental evaluator computes trial values
  // that differ from scratch only by reassociation noise, far below any
  // real gain gap, so the selected groups must be identical.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    World w(45, 450, seed);
    FeedbackVector fb(w.tokens.get());
    GreedySelector sel(&w.store, w.index.get());
    for (size_t k : {3u, 5u, 7u}) {
      GreedyOptions inc = Unbounded(k);
      inc.eval_mode = GreedyOptions::EvalMode::kIncremental;
      GreedyOptions scr = Unbounded(k);
      scr.eval_mode = GreedyOptions::EvalMode::kScratch;

      auto ri = sel.SelectNext(1, fb, inc);
      auto rs = sel.SelectNext(1, fb, scr);
      EXPECT_EQ(ri.groups, rs.groups) << "seed=" << seed << " k=" << k;
      EXPECT_EQ(ri.swaps, rs.swaps);
      EXPECT_NEAR(ri.quality.objective, rs.quality.objective, 1e-9);

      auto ii = sel.SelectInitial(fb, inc);
      auto is = sel.SelectInitial(fb, scr);
      EXPECT_EQ(ii.groups, is.groups) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(GreedyDeterminismTest, ParallelScanIsByteIdenticalToSerial) {
  // Chunk boundaries are fixed by |pool| alone, so the pick must not depend
  // on how many threads deal the chunks.
  for (uint64_t seed : {11u, 12u, 13u}) {
    World w(60, 500, seed);
    FeedbackVector fb(w.tokens.get());
    GreedySelector sel(&w.store, w.index.get());
    for (size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      for (size_t k : {2u, 5u, 7u}) {
        GreedyOptions serial = Unbounded(k);
        GreedyOptions parallel = Unbounded(k);
        parallel.scan_pool = &pool;

        auto rs = sel.SelectNext(0, fb, serial);
        auto rp = sel.SelectNext(0, fb, parallel);
        EXPECT_EQ(rs.groups, rp.groups)
            << "seed=" << seed << " k=" << k << " threads=" << threads;
        EXPECT_EQ(rs.swaps, rp.swaps);
        EXPECT_EQ(rs.passes, rp.passes);
        // Unbounded: both scans are complete, so trial counts match too.
        EXPECT_EQ(rs.evaluations, rp.evaluations);
        // Identical groups → bit-identical reported quality.
        EXPECT_EQ(rs.quality.objective, rp.quality.objective);

        auto is = sel.SelectInitial(fb, serial);
        auto ip = sel.SelectInitial(fb, parallel);
        EXPECT_EQ(is.groups, ip.groups);
      }
    }
  }
}

TEST(GreedyDeterminismTest, ScratchModeIgnoresScanPool) {
  // The scratch evaluator memoizes into the sim cache mid-trial and is not
  // thread-safe; the selector must keep its scan serial even when a pool is
  // supplied, and still match the poolless run exactly.
  ThreadPool pool(3);
  World w(40, 400, 21);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions a = Unbounded(5);
  a.eval_mode = GreedyOptions::EvalMode::kScratch;
  GreedyOptions b = a;
  b.scan_pool = &pool;
  auto ra = sel.SelectNext(2, fb, a);
  auto rb = sel.SelectNext(2, fb, b);
  EXPECT_EQ(ra.groups, rb.groups);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(GreedyStatsTest, PassTimingsMatchPassCount) {
  World w(50, 400, 31);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  auto r = sel.SelectNext(0, fb, Unbounded(5));
  EXPECT_EQ(r.pass_millis.size(), r.passes);
  double total = 0;
  for (double ms : r.pass_millis) {
    EXPECT_GE(ms, 0.0);
    total += ms;
  }
  EXPECT_LE(total, r.elapsed_ms + 1.0);
  EXPECT_GE(r.evaluations, 1u);  // the initial evaluation always counts
}

}  // namespace
}  // namespace vexus::core
