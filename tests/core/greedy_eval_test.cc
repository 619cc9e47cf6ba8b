// SwapObjective oracle tests + greedy determinism tests.
//
// The oracle is ScratchObjective below: the objective recomputed from
// scratch for an arbitrary selection. The incremental evaluator is only
// allowed to differ from it by float reassociation (the coverage counts are
// exact integers in both paths; the diversity/affinity sums re-add the same
// float similarities in a different order), so the pinned tolerance is
// 1e-9 — six orders of magnitude above the observed noise, six below any
// real bug.
#include "core/greedy_eval.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
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

/// The objective of `selection` (pool positions), recomputed from scratch:
/// a coverage-union rebuild plus the O(k²) pair sum. Each pair similarity is
/// rounded through float, as PairwiseSimCache stores it, so SwapObjective
/// differs from this only by the order its sums add the same values.
double ScratchObjective(const GroupStore& store,
                        const std::vector<GroupId>& pool, const Bitset* anchor,
                        const std::vector<double>& affinity,
                        SwapObjective::Config config,
                        const std::vector<size_t>& selection) {
  auto members = [&](size_t i) -> const Bitset& {
    return store.group(pool[i]).members();
  };
  Bitset covered(store.num_users());
  for (size_t i : selection) covered |= members(i);
  const double denom = anchor != nullptr
                           ? static_cast<double>(anchor->Count())
                           : static_cast<double>(store.num_users());
  const double hits = anchor != nullptr
                          ? static_cast<double>(covered.IntersectCount(*anchor))
                          : static_cast<double>(covered.Count());
  const double cov = denom == 0 ? 0.0 : hits / denom;

  const size_t k = selection.size();
  double div = 1.0;
  if (k >= 2) {
    double sim_sum = 0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        sim_sum += static_cast<float>(
            members(selection[i]).Jaccard(members(selection[j])));
      }
    }
    div = 1.0 - sim_sum / (static_cast<double>(k) * (k - 1) / 2);
  }

  double aff = 0;
  for (size_t i : selection) aff += affinity[i];
  aff /= static_cast<double>(k);

  return config.lambda * cov + (1 - config.lambda) * div +
         config.feedback_weight * aff;
}

/// Randomized swap-sequence oracle: Current()/Trial() must track
/// ScratchObjective() through arbitrary Reset/Trial/ApplySwap interleavings.
void RunOracleSequence(const GroupStore& store, const Bitset* anchor,
                       uint64_t seed) {
  const size_t n = store.size();
  std::vector<GroupId> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = static_cast<GroupId>(i);

  vexus::Rng rng(seed);
  std::vector<double> affinity(n);
  for (double& a : affinity) a = rng.UniformDouble();

  index::PairwiseSimCache sims(&store, &pool);
  const SwapObjective::Config config{/*lambda=*/0.6, /*feedback_weight=*/0.3};
  SwapObjective eval(&store, &pool, anchor, &affinity, config, &sims);
  auto oracle = [&](const std::vector<size_t>& sel) {
    return ScratchObjective(store, pool, anchor, affinity, config, sel);
  };

  const size_t k = 5;
  ASSERT_GT(n, k + 2);
  std::vector<size_t> selected;
  std::vector<bool> in_selection(n, false);
  for (size_t i = 0; i < k; ++i) {
    selected.push_back(i);
    in_selection[i] = true;
  }
  eval.Reset(selected);
  EXPECT_NEAR(eval.Current(), oracle(selected), 1e-9);

  for (int iter = 0; iter < 200; ++iter) {
    size_t pos = rng.UniformU32(static_cast<uint32_t>(k));
    size_t cand = rng.UniformU32(static_cast<uint32_t>(n));
    if (in_selection[cand]) continue;

    double delta = eval.Trial(pos, cand);
    std::vector<size_t> trial_sel = selected;
    trial_sel[pos] = cand;
    EXPECT_NEAR(delta, oracle(trial_sel), 1e-9)
        << "iter=" << iter << " pos=" << pos << " cand=" << cand;

    if (rng.Bernoulli(0.3)) {
      in_selection[selected[pos]] = false;
      in_selection[cand] = true;
      eval.ApplySwap(pos, cand);
      selected = trial_sel;
      EXPECT_NEAR(eval.Current(), oracle(selected), 1e-9)
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
  const SwapObjective::Config config{0.5, 0.2};
  SwapObjective eval(&w.store, &pool, nullptr, &affinity, config, &sims);
  auto oracle = [&](const std::vector<size_t>& sel) {
    return ScratchObjective(w.store, pool, nullptr, affinity, config, sel);
  };

  std::vector<size_t> small = {0, 1, 2};
  eval.Reset(small);
  EXPECT_NEAR(eval.Current(), oracle(small), 1e-9);

  std::vector<size_t> large = {3, 4, 5, 6, 7, 8};
  eval.Reset(large);  // k changed: row matrix must re-key cleanly
  EXPECT_NEAR(eval.Current(), oracle(large), 1e-9);
  std::vector<size_t> trial = large;
  trial[0] = 10;
  EXPECT_NEAR(eval.Trial(0, 10), oracle(trial), 1e-9);
}

/// No admissible single swap of `groups` — one that keeps at least `quota`
/// refinements of `anchor` in the selection, as the greedy's scan requires
/// — raises ScratchObjective over `pool` by more than 1e-9.
void ExpectScratchLocalOptimum(const GroupStore& store,
                               const std::vector<GroupId>& pool,
                               std::optional<GroupId> anchor,
                               const std::vector<double>& affinity,
                               const GreedyOptions& opt,
                               const std::vector<GroupId>& groups) {
  const Bitset* anchor_members =
      anchor.has_value() ? &store.group(*anchor).members() : nullptr;
  std::vector<bool> is_refinement(pool.size(), false);
  size_t quota = 0;
  if (anchor.has_value()) {
    const UserGroup& ag = store.group(*anchor);
    size_t total = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const UserGroup& g = store.group(pool[i]);
      is_refinement[i] =
          g.size() < ag.size() && g.members().IsSubsetOf(ag.members());
      total += is_refinement[i];
    }
    const size_t k = std::min(opt.k, pool.size());
    quota = std::min(total, static_cast<size_t>(opt.refinement_quota *
                                                static_cast<double>(k)));
  }
  std::vector<size_t> selection;
  for (GroupId g : groups) {
    auto it = std::find(pool.begin(), pool.end(), g);
    ASSERT_NE(it, pool.end()) << "group " << g << " is not a candidate";
    selection.push_back(static_cast<size_t>(it - pool.begin()));
  }
  size_t refinements = 0;
  for (size_t i : selection) refinements += is_refinement[i];
  ASSERT_GE(refinements, quota);

  const SwapObjective::Config config{opt.lambda, opt.feedback_weight};
  const double current = ScratchObjective(store, pool, anchor_members,
                                          affinity, config, selection);
  for (size_t cand = 0; cand < pool.size(); ++cand) {
    if (std::find(selection.begin(), selection.end(), cand) !=
        selection.end()) {
      continue;
    }
    for (size_t pos = 0; pos < selection.size(); ++pos) {
      if (refinements - is_refinement[selection[pos]] + is_refinement[cand] <
          quota) {
        continue;
      }
      std::vector<size_t> trial = selection;
      trial[pos] = cand;
      EXPECT_LE(ScratchObjective(store, pool, anchor_members, affinity,
                                 config, trial),
                current + 1e-9)
          << "swap slot " << pos << " for candidate " << pool[cand];
    }
  }
}

TEST(GreedyDeterminismTest, UnboundedRunIsALocalOptimumOfTheScratchObjective) {
  // The incremental trial values differ from the scratch objective only by
  // reassociation noise, far below any real gain gap, so a converged run
  // must leave no swap that the oracle scores as an improvement.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    World w(45, 450, seed);
    FeedbackVector fb(w.tokens.get());
    GreedySelector sel(&w.store, w.index.get());
    for (size_t k : {3u, 5u, 7u}) {
      SCOPED_TRACE(StrCat("seed=", seed, " k=", k));
      const GreedyOptions opt = Unbounded(k);

      // SelectNext's candidates: the anchor's neighbors above σ, with the
      // feedback-weighted similarity to the anchor as affinity.
      const GroupId anchor = 1;
      std::vector<GroupId> pool;
      for (const index::Neighbor& nb : w.index->Neighbors(anchor)) {
        if (nb.similarity >= opt.min_similarity) pool.push_back(nb.group);
      }
      const std::vector<double> weights = fb.UserWeights();
      std::vector<double> affinity;
      for (GroupId g : pool) {
        affinity.push_back(index::WeightedJaccard(
            w.store.group(g).members(), w.store.group(anchor).members(),
            weights));
      }
      auto next = sel.SelectNext(anchor, fb, opt);
      ASSERT_FALSE(next.deadline_hit);
      ExpectScratchLocalOptimum(w.store, pool, anchor, affinity, opt,
                                next.groups);

      // SelectInitial's candidates: every group ranked by size, with no
      // affinity.
      std::vector<GroupId> all(w.store.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<GroupId>(i);
      RankPoolBySize(w.store, kInitialCandidateCap, &all);
      auto initial = sel.SelectInitial(fb, opt);
      ASSERT_FALSE(initial.deadline_hit);
      ExpectScratchLocalOptimum(w.store, all, std::nullopt,
                                std::vector<double>(all.size(), 0.0), opt,
                                initial.groups);
    }
  }
}

TEST(GreedyDeterminismTest, CutRunKeepsItsCompletePasses) {
  // A pass the deadline cuts applies nothing, so a deadline-hit screen is
  // the seed plus its complete passes. For each p, a sleep past the budget
  // at the start of pass p + 1 leaves exactly the unbounded run's first p
  // swaps, whatever the budget. μ = 0 makes the reported objective the one
  // the swaps climb.
  World w(45, 450, 1);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions unbounded = Unbounded(5);
  unbounded.feedback_weight = 0;
  const GroupId anchor = 1;
  const GreedySelection full = sel.SelectNext(anchor, fb, unbounded);
  ASSERT_FALSE(full.deadline_hit);
  ASSERT_GE(full.swaps, 2u);

  double last_objective = -1;
  for (size_t p = 0; p <= full.swaps; ++p) {
    SCOPED_TRACE(StrCat("p=", p));
    std::vector<GreedySelection> cut;
    for (double budget_ms : {40.0, 80.0}) {
      failpoint::Policy slow;
      slow.mode = failpoint::Policy::Mode::kEveryNth;
      slow.nth = p + 1;
      slow.max_fires = 1;
      slow.code = StatusCode::kOk;
      slow.sleep_ms = 100.0;
      failpoint::ScopedFailpoint fp("greedy.pass", slow);
      GreedyOptions opt = unbounded;
      opt.time_limit_ms = budget_ms;
      cut.push_back(sel.SelectNext(anchor, fb, opt));
      ASSERT_EQ(fp.fires(), 1u);
    }
    for (const GreedySelection& r : cut) {
      EXPECT_TRUE(r.deadline_hit);
      EXPECT_EQ(r.passes, p + 1);
      EXPECT_EQ(r.swaps, p);
    }
    EXPECT_EQ(cut[0].groups, cut[1].groups);
    EXPECT_GT(cut[0].quality.objective, last_objective);
    last_objective = cut[0].quality.objective;
    if (p == full.swaps) {
      EXPECT_EQ(cut[0].groups, full.groups);
      EXPECT_EQ(cut[0].quality.coverage, full.quality.coverage);
      EXPECT_EQ(cut[0].quality.diversity, full.quality.diversity);
    }
  }
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
