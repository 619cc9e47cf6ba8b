#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace vexus::core {
namespace {

using mining::GroupId;
using mining::GroupStore;
using mining::UserGroup;

struct World {
  World(size_t n_groups, size_t n_users, uint64_t seed)
      : store(n_users), dataset_users(n_users) {
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
    // A token space needs a dataset whose schema covers the descriptor
    // tokens the groups reference (attribute 0, one value per group).
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
  size_t dataset_users;
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

TEST(GreedyTest, SelectsKGroups) {
  World w(30, 300, 1);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  auto result = sel.SelectNext(0, fb, Unbounded(4));
  EXPECT_EQ(result.groups.size(), 4u);
  EXPECT_GT(result.candidates, 0u);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(GreedyTest, ResultsAreUniqueAndValid) {
  World w(30, 300, 2);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  auto result = sel.SelectNext(5, fb, Unbounded(5));
  std::vector<GroupId> sorted = result.groups;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (GroupId g : result.groups) {
    EXPECT_LT(g, w.store.size());
    EXPECT_NE(g, 5u);  // anchor not recommended to itself
  }
}

TEST(GreedyTest, RespectsSimilarityLowerBound) {
  World w(40, 300, 3);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(5);
  opt.min_similarity = 0.15;
  auto result = sel.SelectNext(0, fb, opt);
  for (GroupId g : result.groups) {
    double sim = w.store.group(g).members().Jaccard(w.store.group(0).members());
    EXPECT_GE(sim, 0.15);
  }
}

TEST(GreedyTest, SwapsImproveObjective) {
  World w(50, 400, 4);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());

  // Compare the refined selection against the pure seed (tiny deadline that
  // expires before any pass completes rarely swaps; unbounded must be >=).
  GreedyOptions seed_only = Unbounded(5);
  seed_only.time_limit_ms = 1e-9;  // expires immediately
  GreedyOptions full = Unbounded(5);

  auto seeded = sel.SelectNext(0, fb, seed_only);
  auto refined = sel.SelectNext(0, fb, full);
  EXPECT_GE(refined.quality.objective + 1e-9, seeded.quality.objective);
  EXPECT_GE(refined.passes, 1u);
}

TEST(GreedyTest, UnboundedRunTerminatesAtLocalOptimum) {
  World w(25, 200, 5);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  auto result = sel.SelectNext(0, fb, Unbounded(3));
  EXPECT_FALSE(result.deadline_hit);
  // Verify local optimality: no single swap improves the internal objective.
  // (We re-run and expect identical output — determinism.)
  auto again = sel.SelectNext(0, fb, Unbounded(3));
  EXPECT_EQ(result.groups, again.groups);
}

TEST(GreedyTest, DeadlineIsHonored) {
  World w(120, 2000, 6);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(7);
  opt.time_limit_ms = 5;
  Stopwatch watch;
  auto result = sel.SelectNext(0, fb, opt);
  double elapsed = watch.ElapsedMillis();
  // Generous bound: deadline + one evaluation overshoot.
  EXPECT_LT(elapsed, 200.0);
  EXPECT_EQ(result.groups.size(), 7u);
}

TEST(GreedyTest, ZeroAndNegativeBudgetsExpireImmediately) {
  // Regression: the budget semantics must match Deadline::AfterMillis —
  // zero/negative/NaN budgets mean "already expired", NOT "unbounded". The
  // serving layer clamps a request's *remaining* deadline into
  // time_limit_ms without a sign check, so a request that arrives with no
  // budget left must get the seed-only anytime answer, never a full
  // refinement run.
  World w(60, 500, 11);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());

  for (double budget : {0.0, -5.0, std::nan("")}) {
    GreedyOptions opt = Unbounded(4);
    opt.time_limit_ms = budget;
    auto result = sel.SelectNext(0, fb, opt);
    EXPECT_TRUE(result.deadline_hit) << "budget=" << budget;
    EXPECT_EQ(result.groups.size(), 4u) << "anytime: seed still answers";
    EXPECT_EQ(result.passes, 0u) << "no refinement pass may start";
  }

  // Same contract on the initial screen.
  GreedyOptions opt0 = Unbounded(4);
  opt0.time_limit_ms = 0;
  auto initial = sel.SelectInitial(fb, opt0);
  EXPECT_TRUE(initial.deadline_hit);
  EXPECT_EQ(initial.groups.size(), 4u);

  // Both expired runs stop before the first pass: deterministic equals.
  GreedyOptions zero = Unbounded(4);
  zero.time_limit_ms = 0;
  GreedyOptions negative = Unbounded(4);
  negative.time_limit_ms = -1e9;
  EXPECT_EQ(sel.SelectNext(0, fb, zero).groups,
            sel.SelectNext(0, fb, negative).groups);
}

/// SelectInitial at k under a 40 ms budget while the `greedy.pass`
/// failpoint sleeps 80 ms, so the first pass's scan starts past the
/// deadline.
GreedySelection InitialWithExpiredScan(const World& w, size_t k) {
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt;
  opt.k = k;
  opt.time_limit_ms = 40;

  failpoint::Policy slow;
  slow.mode = failpoint::Policy::Mode::kAlways;
  slow.code = StatusCode::kOk;
  slow.sleep_ms = 80.0;
  failpoint::ScopedFailpoint fp("greedy.pass", slow);
  return sel.SelectInitial(fb, opt);
}

/// SelectInitial at k with an already-expired budget: the seed alone, since
/// a first screen never truncates its seed.
std::vector<GroupId> InitialSeed(const World& w, size_t k) {
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt;
  opt.k = k;
  opt.time_limit_ms = 0;
  return sel.SelectInitial(fb, opt).groups;
}

TEST(GreedyTest, DeadlineCheckedInsidePositionSweep) {
  // Regression for the P3 budget overrun: the deadline used to be checked
  // only *between* candidates, so one candidate's k-trial sweep could blow
  // far past the budget once k·U got large. The scan must stop at its
  // first check, 16 trials in, not after a candidate's 32-trial sweep.
  World w(160, 2000, 13);
  auto r = InitialWithExpiredScan(w, 32);

  ASSERT_GE(r.candidates, 48u);
  EXPECT_EQ(r.passes, 1u);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.groups.size(), 32u) << "anytime: the seed still answers";
  EXPECT_EQ(r.evaluations, 1u + 16)
      << "deadline must interrupt the per-candidate position sweep at its "
         "first check, 16 trials in";
  // The cut pass applies nothing, not its best-so-far trial.
  EXPECT_EQ(r.swaps, 0u);
  EXPECT_EQ(r.groups, InitialSeed(w, 32));
}

TEST(GreedyTest, DeadlineCheckSpansCandidates) {
  // With k = 2 each candidate's sweep is 2 trials, so a trial counter that
  // restarted per candidate would never reach 16 and the scan would run all
  // of its 2·(|pool| − 2) trials past the deadline. The counter carries
  // across candidates: the scan stops at its first check, 16 trials in.
  World w(120, 2000, 14);
  auto r = InitialWithExpiredScan(w, 2);

  ASSERT_GE(r.candidates, 100u);
  EXPECT_EQ(r.passes, 1u);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.evaluations, 1u + 16);
  EXPECT_EQ(r.swaps, 0u);
  EXPECT_EQ(r.groups, InitialSeed(w, 2));
}

TEST(GreedyTest, ConvergedRunIsNotDeadlineHit) {
  // Regression: deadline_hit used to be set whenever the clock read expired
  // at return time — even for runs that reached a local optimum first. A
  // pool no larger than k converges trivially (no swap exists), so even a
  // zero budget must NOT be reported as a deadline truncation.
  World w(5, 200, 12);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());

  GreedyOptions opt = Unbounded(7);  // pool ≤ 4 neighbors < k
  opt.time_limit_ms = 0;             // expired before the loop starts
  auto r = sel.SelectNext(0, fb, opt);
  ASSERT_LE(r.groups.size(), 4u);
  EXPECT_FALSE(r.deadline_hit)
      << "a trivially converged run is a local optimum, not a truncation";

  // Sanity: the same zero budget on a pool with room to swap IS a hit.
  World big(60, 500, 12);
  FeedbackVector fb2(big.tokens.get());
  GreedySelector sel2(&big.store, big.index.get());
  GreedyOptions opt2 = Unbounded(4);
  opt2.time_limit_ms = 0;
  EXPECT_TRUE(sel2.SelectNext(0, fb2, opt2).deadline_hit);
}

// Weighted Jaccard written out user by user, independent of the index's
// word-walking kernel.
double LocalWeightedJaccard(const Bitset& a, const Bitset& b,
                            const std::vector<double>& weights) {
  double inter = 0, uni = 0;
  for (uint32_t u = 0; u < a.size(); ++u) {
    const bool in_a = a.Test(u), in_b = b.Test(u);
    if (in_a || in_b) uni += weights[u];
    if (in_a && in_b) inter += weights[u];
  }
  return uni > 0 ? inter / uni : 0.0;
}

// The anchor's candidate pool as SelectNext builds it.
std::vector<GroupId> PoolOf(const World& w, GroupId anchor,
                            const GreedyOptions& opt) {
  std::vector<GroupId> pool;
  for (const index::Neighbor& nb : w.index->Neighbors(anchor)) {
    if (nb.similarity >= opt.min_similarity) pool.push_back(nb.group);
  }
  return pool;
}

TEST(GreedyTest, ZeroBudgetSeedsTheHighestAffinityCandidates) {
  // An expired deadline stops the seed once k priors are in. The k scored
  // candidates are the k highest by affinity, and every unscored one seeds
  // at its affinity (prior 1), which no scored candidate falls below. With
  // no refinement quota and no pass, the screen is those k.
  World w(60, 500, 21);
  FeedbackVector fb(w.tokens.get());
  fb.Learn(w.store.group(3));
  fb.Learn(w.store.group(7));
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(4);
  opt.time_limit_ms = 0;
  opt.refinement_quota = 0;
  const GroupId anchor = 0;

  auto r = sel.SelectNext(anchor, fb, opt);
  ASSERT_GT(r.candidates, opt.k);
  EXPECT_EQ(r.seed_scored, opt.k);
  EXPECT_TRUE(r.seed_truncated);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.passes, 0u);

  const std::vector<GroupId> pool = PoolOf(w, anchor, opt);
  ASSERT_EQ(pool.size(), r.candidates);
  const std::vector<double> weights = fb.UserWeights();
  std::vector<std::pair<double, GroupId>> ranked;
  for (GroupId g : pool) {
    ranked.emplace_back(
        LocalWeightedJaccard(w.store.group(g).members(),
                             w.store.group(anchor).members(), weights),
        g);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  // A tie across the k-th place would make "the k highest" ambiguous.
  ASSERT_GT(ranked[opt.k - 1].first, ranked[opt.k].first + 1e-12);
  std::vector<GroupId> expected;
  for (size_t i = 0; i < opt.k; ++i) expected.push_back(ranked[i].second);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(r.groups, expected);
}

TEST(GreedyTest, SeedFailpointTruncatesTheSeedMidway) {
  // A sleep before every prior burns the budget partway through the seed:
  // the first k priors are always computed, the rest stop at the deadline,
  // and the run still answers k groups, flagged deadline-hit.
  World w(60, 500, 22);
  FeedbackVector fb(w.tokens.get());
  fb.Learn(w.store.group(5));
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(4);
  opt.time_limit_ms = 20;

  failpoint::Policy slow;
  slow.mode = failpoint::Policy::Mode::kAlways;
  slow.code = StatusCode::kOk;
  slow.sleep_ms = 3.0;
  failpoint::ScopedFailpoint fp("greedy.seed", slow);
  auto r = sel.SelectNext(0, fb, opt);

  // 20 ms at >= 3 ms per prior admits at most 8 priors.
  ASSERT_GT(r.candidates, 12u);
  EXPECT_GE(r.seed_scored, opt.k);
  EXPECT_LT(r.seed_scored, r.candidates);
  EXPECT_EQ(fp.hits(), r.seed_scored) << "one hit per computed prior";
  EXPECT_TRUE(r.seed_truncated);
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_EQ(r.groups.size(), opt.k);
  EXPECT_EQ(r.passes, 0u);
}

failpoint::Policy CutEveryNth(uint64_t n) {
  failpoint::Policy p;
  p.mode = failpoint::Policy::Mode::kEveryNth;
  p.nth = n;
  p.code = StatusCode::kOk;  // a fire only expires the run's deadline
  return p;
}

TEST(GreedyResumeTest, ResumedRunsEndWhereAnUninterruptedRunDoes) {
  World w(60, 500, 21);
  FeedbackVector fb(w.tokens.get());
  fb.Learn(w.store.group(3));
  GreedySelector sel(&w.store, w.index.get());
  const GroupId anchor = 1;
  const GreedySelection full = sel.SelectNext(anchor, fb, Unbounded(4));
  ASSERT_GT(full.candidates, 8u);
  ASSERT_GE(full.swaps, 1u);

  // Every run is cut: its seed after two new priors, its second pass at
  // the start. Each resumes the record the previous one left.
  WorkRecord record;
  GreedySelection r;
  size_t runs = 0, seed_scored = 0, swaps = 0;
  do {
    failpoint::ScopedFailpoint seed("greedy.seed", CutEveryNth(2));
    failpoint::ScopedFailpoint pass("greedy.pass", CutEveryNth(2));
    r = sel.SelectNext(anchor, fb, Unbounded(4), &record);
    EXPECT_EQ(r.resumed, runs > 0);
    EXPECT_GE(r.seed_scored, seed_scored);
    EXPECT_GE(r.swaps, swaps);
    EXPECT_EQ(record.priors.size(), r.seed_scored);
    seed_scored = r.seed_scored;
    swaps = r.swaps;
  } while (++runs < 100 && r.deadline_hit);
  EXPECT_FALSE(r.deadline_hit);
  EXPECT_GT(runs, 2u);
  EXPECT_EQ(r.groups, full.groups);
  EXPECT_EQ(r.quality.coverage, full.quality.coverage);
  EXPECT_EQ(r.quality.diversity, full.quality.diversity);
  EXPECT_EQ(r.weighted_affinity, full.weighted_affinity);
  EXPECT_EQ(r.seed_scored, full.candidates);
  EXPECT_EQ(r.swaps, full.swaps);
  EXPECT_EQ(record.swaps, full.swaps);
  EXPECT_EQ(record.affinity.size(), full.candidates);
}

TEST(GreedyResumeTest, RecordThatDoesNotFitThePoolIsDiscarded) {
  World w(60, 500, 21);
  FeedbackVector fb(w.tokens.get());
  fb.Learn(w.store.group(3));
  GreedySelector sel(&w.store, w.index.get());
  const GreedySelection full = sel.SelectNext(1, fb, Unbounded(4));

  WorkRecord wrong;
  wrong.affinity.assign(3, 0.5);
  wrong.priors = {2.0};
  const GreedySelection r = sel.SelectNext(1, fb, Unbounded(4), &wrong);
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(r.groups, full.groups);
  EXPECT_EQ(wrong.affinity.size(), full.candidates) << "replaced, not kept";

  // A selection without every prior behind it cannot be continued either.
  WorkRecord early;
  {
    failpoint::ScopedFailpoint seed("greedy.seed", CutEveryNth(1));
    ASSERT_TRUE(sel.SelectNext(1, fb, Unbounded(4), &early).seed_truncated);
  }
  early.selected = {0, 1, 2, 3};
  EXPECT_FALSE(sel.SelectNext(1, fb, Unbounded(4), &early).resumed);
}

TEST(GreedyTest, UnboundedSeedScoresEveryCandidate) {
  World w(60, 500, 23);
  FeedbackVector fb(w.tokens.get());
  fb.Learn(w.store.group(2));
  GreedySelector sel(&w.store, w.index.get());

  auto next = sel.SelectNext(0, fb, Unbounded(4));
  EXPECT_EQ(next.seed_scored, next.candidates);
  EXPECT_FALSE(next.seed_truncated);
  EXPECT_FALSE(next.deadline_hit);
  EXPECT_GE(next.seed_millis.weights, 0.0);
  EXPECT_GE(next.seed_millis.affinity, 0.0);
  EXPECT_GE(next.seed_millis.prior, 0.0);
  EXPECT_GE(next.seed_millis.setup, 0.0);
  const double seed_ms = next.seed_millis.weights + next.seed_millis.affinity +
                         next.seed_millis.prior + next.seed_millis.setup;
  EXPECT_LE(seed_ms, next.elapsed_ms);

  auto initial = sel.SelectInitial(fb, Unbounded(4));
  EXPECT_EQ(initial.seed_scored, initial.candidates);
  EXPECT_FALSE(initial.seed_truncated);
  EXPECT_FALSE(initial.deadline_hit);
  EXPECT_EQ(initial.seed_millis.weights, 0.0) << "a first screen has no anchor";
  EXPECT_EQ(initial.seed_millis.affinity, 0.0);
}

TEST(GreedyTest, RankPoolByPriorIsPermutationInvariant) {
  // Regression: the initial-screen candidate cap used to sort a positions
  // array while indexing the score vector by GroupId *value* — correct only
  // while the pool happened to be the identity permutation. The ranking
  // must now give the same truncated pool for any input order.
  World w(40, 300, 14);
  FeedbackVector fb(w.tokens.get());

  std::vector<GroupId> identity(w.store.size());
  std::iota(identity.begin(), identity.end(), GroupId{0});
  std::vector<GroupId> shuffled = identity;
  vexus::Rng rng(99);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformU32(static_cast<uint32_t>(i))]);
  }
  ASSERT_NE(shuffled, identity);

  std::vector<GroupId> a = identity, b = shuffled;
  RankPoolByPrior(w.store, fb, /*cap=*/10, &a);
  RankPoolByPrior(w.store, fb, /*cap=*/10, &b);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b) << "ranking must not depend on the pool's input order";

  // With neutral feedback the prior is flat, so the ranking reduces to
  // log1p(group size): scores must be non-increasing down the kept pool.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(w.store.group(a[i - 1]).size(), w.store.group(a[i]).size());
  }

  // Pools within the cap are untouched, in their original order.
  std::vector<GroupId> small = {7, 3, 5};
  std::vector<GroupId> small_copy = small;
  RankPoolByPrior(w.store, fb, /*cap=*/10, &small);
  EXPECT_EQ(small, small_copy);

  // End-to-end: the capped initial screen must pick the same groups as an
  // uncapped run over a store this small would seed from the top anyway.
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(3);
  opt.initial_candidate_cap = 10;
  auto r = sel.SelectInitial(fb, opt);
  EXPECT_EQ(r.candidates, 10u);
  for (GroupId g : r.groups) {
    EXPECT_NE(std::find(a.begin(), a.end(), g), a.end())
        << "selection must come from the ranked pool";
  }
}

TEST(GreedyTest, FeedbackBiasesSelection) {
  // Controlled world: anchor = [0,100). Candidates A and B are symmetric
  // halves of the anchor padded with disjoint outside users; rewarding a
  // group inside A's half must flip the weighted similarity in A's favor
  // and pull A into the selection once the affinity term dominates.
  GroupStore store(400);
  auto range = [](uint32_t lo, uint32_t hi) {
    std::vector<uint32_t> v;
    for (uint32_t i = lo; i < hi; ++i) v.push_back(i);
    return Bitset::FromVector(400, v);
  };
  GroupId anchor = store.Add(UserGroup({{0, 0}}, range(0, 100)));
  Bitset a_members = range(0, 50) | range(300, 350);
  Bitset b_members = range(50, 100) | range(350, 400);
  GroupId ga = store.Add(UserGroup({{0, 1}}, std::move(a_members)));
  GroupId gb = store.Add(UserGroup({{0, 2}}, std::move(b_members)));
  // The rewarded region is NOT a stored group: feedback can come from any
  // clicked group along the way; here we inject it directly.
  UserGroup rewarded({{0, 3}}, range(0, 50));

  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 1.0;
  iopt.min_neighbors = 1;
  auto idx =
      std::move(index::InvertedIndex::Build(store, iopt)).ValueOrDie();

  data::Dataset ds;
  auto a0 = ds.schema().AddCategorical("a0");
  for (int v = 0; v < 4; ++v) {
    ds.schema().attribute(a0).values().GetOrAdd(StrCat("v", v));
  }
  for (int u = 0; u < 400; ++u) ds.users().AddUser(StrCat("u", u));
  TokenSpace ts(ds);

  GreedySelector sel(&store, &idx);
  FeedbackVector toward_a(&ts), toward_b(&ts);
  for (int i = 0; i < 3; ++i) toward_a.Learn(rewarded, 1.0);
  UserGroup mirror({{0, 3}}, range(50, 100));
  for (int i = 0; i < 3; ++i) toward_b.Learn(mirror, 1.0);

  // k=1 with a dominating affinity term: the single recommended group must
  // be the one aligned with the feedback, flipping with the feedback.
  GreedyOptions opt = Unbounded(1);
  opt.feedback_weight = 100.0;
  opt.refinement_quota = 0;  // A and B are laterals by construction
  auto ra = sel.SelectNext(anchor, toward_a, opt);
  auto rb = sel.SelectNext(anchor, toward_b, opt);
  ASSERT_EQ(ra.groups.size(), 1u);
  ASSERT_EQ(rb.groups.size(), 1u);
  EXPECT_EQ(ra.groups[0], ga);
  EXPECT_EQ(rb.groups[0], gb);

  // Personalization raises the achieved affinity over a neutral session.
  FeedbackVector neutral(&ts);
  auto base = sel.SelectNext(anchor, neutral, opt);
  EXPECT_GE(ra.weighted_affinity, base.weighted_affinity - 1e-9);
}

TEST(GreedyTest, InitialSelectionCoversUniverse) {
  World w(30, 300, 8);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(5);
  opt.lambda = 1.0;  // pure coverage
  auto result = sel.SelectInitial(fb, opt);
  EXPECT_EQ(result.groups.size(), 5u);
  EXPECT_GT(result.quality.coverage, 0.5);
}

TEST(GreedyTest, InitialCandidateCapRespected) {
  World w(60, 300, 9);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions opt = Unbounded(3);
  opt.initial_candidate_cap = 10;
  auto result = sel.SelectInitial(fb, opt);
  EXPECT_EQ(result.candidates, 10u);
  EXPECT_EQ(result.groups.size(), 3u);
}

TEST(GreedyTest, FewerCandidatesThanK) {
  World w(3, 100, 10);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  auto result = sel.SelectNext(0, fb, Unbounded(7));
  EXPECT_LE(result.groups.size(), 2u);  // at most the other 2 groups
}

index::InvertedIndex InvertedIndex_BuildOrDie(
    const GroupStore& store, const index::InvertedIndex::Options& opt) {
  return std::move(index::InvertedIndex::Build(store, opt)).ValueOrDie();
}

TEST(GreedyTest, NoCandidatesYieldsEmptySelection) {
  GroupStore store(50);
  store.Add(UserGroup({{0, 0}}, Bitset::FromVector(50, {1})));
  store.Add(UserGroup({{0, 1}}, Bitset::FromVector(50, {40})));
  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 1.0;
  auto idx = InvertedIndex_BuildOrDie(store, iopt);
  data::Dataset ds;
  for (int i = 0; i < 50; ++i) ds.users().AddUser(StrCat("u", i));
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  GreedySelector sel(&store, &idx);
  auto result = sel.SelectNext(0, fb, Unbounded(5));
  EXPECT_TRUE(result.groups.empty());
  EXPECT_EQ(result.candidates, 0u);
}

TEST(GreedyTest, RefinementQuotaReservesSubsetSlots) {
  // Anchor [0,100); two strict subsets and many big laterals. With quota
  // 0.5 and k=4, at least 2 shown groups must be subsets of the anchor.
  GroupStore store(300);
  auto range = [](uint32_t lo, uint32_t hi) {
    std::vector<uint32_t> v;
    for (uint32_t i = lo; i < hi; ++i) v.push_back(i);
    return Bitset::FromVector(300, v);
  };
  GroupId anchor = store.Add(UserGroup({{0, 0}}, range(0, 100)));
  GroupId sub1 = store.Add(UserGroup({{0, 1}}, range(0, 30)));
  GroupId sub2 = store.Add(UserGroup({{0, 2}}, range(30, 60)));
  // Laterals covering the anchor plus lots of outside users (they dominate
  // coverage+diversity, so without the quota no subset would be shown).
  for (int i = 0; i < 6; ++i) {
    store.Add(UserGroup({{0, static_cast<data::ValueId>(3 + i)}},
                        range(i * 10, i * 10 + 40) | range(100, 280)));
  }
  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 1.0;
  iopt.min_neighbors = 1;
  auto idx = InvertedIndex_BuildOrDie(store, iopt);
  data::Dataset ds;
  auto a0 = ds.schema().AddCategorical("a0");
  for (int v = 0; v < 9; ++v) {
    ds.schema().attribute(a0).values().GetOrAdd(StrCat("v", v));
  }
  for (int u = 0; u < 300; ++u) ds.users().AddUser(StrCat("u", u));
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  GreedySelector sel(&store, &idx);

  GreedyOptions with_quota = Unbounded(4);
  with_quota.refinement_quota = 0.5;
  auto r = sel.SelectNext(anchor, fb, with_quota);
  size_t subsets = 0;
  for (GroupId g : r.groups) subsets += (g == sub1 || g == sub2);
  EXPECT_EQ(subsets, 2u);

  GreedyOptions no_quota = Unbounded(4);
  no_quota.refinement_quota = 0;
  auto r0 = sel.SelectNext(anchor, fb, no_quota);
  size_t subsets0 = 0;
  for (GroupId g : r0.groups) subsets0 += (g == sub1 || g == sub2);
  EXPECT_LE(subsets0, subsets);
}

TEST(GreedyTest, RefinementQuotaAboveOneFillsExactlyK) {
  // Regression: the quota fraction was cast to a slot count unclamped, and
  // the seed takes `quota` refinements before it checks k, so a quota of 2
  // returned 2k groups (and +inf made the cast undefined). Both now clamp
  // to a quota of 1: every slot a refinement, exactly k groups.
  GroupStore store(300);
  auto range = [](uint32_t lo, uint32_t hi) {
    std::vector<uint32_t> v;
    for (uint32_t i = lo; i < hi; ++i) v.push_back(i);
    return Bitset::FromVector(300, v);
  };
  GroupId anchor = store.Add(UserGroup({{0, 0}}, range(0, 200)));
  // Ten strict subsets of the anchor, more than 2k for k = 4.
  for (uint32_t i = 0; i < 10; ++i) {
    store.Add(UserGroup({{0, static_cast<data::ValueId>(1 + i)}},
                        range(i * 15, i * 15 + 40)));
  }
  for (uint32_t i = 0; i < 4; ++i) {
    store.Add(UserGroup({{0, static_cast<data::ValueId>(11 + i)}},
                        range(150 + i * 10, 250 + i * 10)));
  }
  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 1.0;
  iopt.min_neighbors = 1;
  auto idx = InvertedIndex_BuildOrDie(store, iopt);
  data::Dataset ds;
  auto a0 = ds.schema().AddCategorical("a0");
  for (int v = 0; v < 15; ++v) {
    ds.schema().attribute(a0).values().GetOrAdd(StrCat("v", v));
  }
  for (int u = 0; u < 300; ++u) ds.users().AddUser(StrCat("u", u));
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  GreedySelector sel(&store, &idx);

  GreedyOptions one = Unbounded(4);
  one.refinement_quota = 1.0;
  auto r1 = sel.SelectNext(anchor, fb, one);
  ASSERT_EQ(r1.groups.size(), 4u);
  for (GroupId g : r1.groups) {
    EXPECT_TRUE(g >= 1 && g <= 10) << "quota 1 shows only refinements";
  }
  for (double quota : {2.0, std::numeric_limits<double>::infinity()}) {
    GreedyOptions over = one;
    over.refinement_quota = quota;
    auto r = sel.SelectNext(anchor, fb, over);
    EXPECT_EQ(r.groups, r1.groups) << "quota=" << quota;
  }
}

TEST(GreedyTest, SupersetsStayCandidates) {
  // Supersets of the anchor are legitimate roll-up moves: the selector
  // never filters them out (the refinement quota is what guarantees
  // drill-down).
  GroupStore store(100);
  auto range = [](uint32_t lo, uint32_t hi) {
    std::vector<uint32_t> v;
    for (uint32_t i = lo; i < hi; ++i) v.push_back(i);
    return Bitset::FromVector(100, v);
  };
  GroupId anchor = store.Add(UserGroup({{0, 0}}, range(10, 40)));
  GroupId parent = store.Add(UserGroup({{0, 1}}, range(0, 60)));
  store.Add(UserGroup({{0, 2}}, range(30, 80)));  // a lateral
  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 1.0;
  iopt.min_neighbors = 1;
  auto idx = InvertedIndex_BuildOrDie(store, iopt);
  data::Dataset ds;
  auto a0 = ds.schema().AddCategorical("a0");
  for (int v = 0; v < 3; ++v) {
    ds.schema().attribute(a0).values().GetOrAdd(StrCat("v", v));
  }
  for (int u = 0; u < 100; ++u) ds.users().AddUser(StrCat("u", u));
  TokenSpace ts(ds);
  FeedbackVector fb(&ts);
  GreedySelector sel(&store, &idx);

  GreedyOptions opt = Unbounded(5);
  opt.min_similarity = 0.01;
  auto r = sel.SelectNext(anchor, fb, opt);
  EXPECT_NE(std::find(r.groups.begin(), r.groups.end(), parent),
            r.groups.end());
}

TEST(GreedyTest, OutputByteIdenticalAcrossKernelTiers) {
  // The SIMD acceptance gate: greedy output must be byte-identical under
  // the scalar, AVX2, and AVX-512 kernel tiers. Every kernel returns exact
  // integers and every float is derived from those integers in a fixed
  // order — so not just the chosen groups but the objective's exact bit
  // pattern, the evaluation count, and the swap count must agree.
  namespace bk = vexus::bitset_kernels;
  World w(50, 900, 21);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());

  struct Run {
    bk::Level level;
    GreedySelection next;
    GreedySelection initial;
  };
  std::vector<Run> runs;
  for (bk::Level level : {bk::Level::kScalar, bk::Level::kAvx2,
                          bk::Level::kAvx512}) {
    if (!bk::LevelSupported(level)) continue;
    bk::internal::SetLevelForTesting(level);
    GreedyOptions opt = Unbounded(5);
    runs.push_back({level, sel.SelectNext(0, fb, opt),
                    sel.SelectInitial(fb, opt)});
    bk::internal::ResetLevelForTesting();
  }
  ASSERT_FALSE(runs.empty());
  const Run& ref = runs.front();
  EXPECT_EQ(ref.next.groups.size(), 5u);
  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << bk::LevelName(runs[i].level) << " vs "
                                    << bk::LevelName(ref.level));
    EXPECT_EQ(runs[i].next.groups, ref.next.groups);
    EXPECT_EQ(runs[i].next.quality.objective, ref.next.quality.objective);
    EXPECT_EQ(runs[i].next.quality.coverage, ref.next.quality.coverage);
    EXPECT_EQ(runs[i].next.quality.diversity, ref.next.quality.diversity);
    EXPECT_EQ(runs[i].next.evaluations, ref.next.evaluations);
    EXPECT_EQ(runs[i].next.passes, ref.next.passes);
    EXPECT_EQ(runs[i].next.swaps, ref.next.swaps);
    EXPECT_EQ(runs[i].initial.groups, ref.initial.groups);
    EXPECT_EQ(runs[i].initial.quality.objective,
              ref.initial.quality.objective);
    EXPECT_EQ(runs[i].initial.evaluations, ref.initial.evaluations);
  }
}

TEST(GreedyTest, LambdaExtremesChangeSelections) {
  World w(40, 400, 11);
  FeedbackVector fb(w.tokens.get());
  GreedySelector sel(&w.store, w.index.get());
  GreedyOptions cov = Unbounded(4);
  cov.lambda = 1.0;
  GreedyOptions div = Unbounded(4);
  div.lambda = 0.0;
  auto rc = sel.SelectNext(0, fb, cov);
  auto rd = sel.SelectNext(0, fb, div);
  EXPECT_GE(rc.quality.coverage + 1e-9, rd.quality.coverage);
  EXPECT_GE(rd.quality.diversity + 1e-9, rc.quality.diversity);
}

}  // namespace
}  // namespace vexus::core
