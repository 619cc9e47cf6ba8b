// E3 — inverted-index materialization fraction (paper §II.A):
//
//   "To reduce both time and space complexity, we only materialize 10% of
//    each inverted index which is shown in [14] to be adequate to deliver
//    satisfying results."
//
// Protocol: build the index at p ∈ {1, 5, 10, 25, 100}% and measure
// (a) memory, (b) neighbor recall@10 against the full index, and
// (c) end-task quality — the greedy's diversity/coverage using the
// truncated index relative to using the full one. Shape to reproduce: 10%
// retains near-full recommendation quality at ~10x less memory.

#include <set>

#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/greedy.h"

using namespace vexus;
using namespace vexus::bench;

int main() {
  Banner("E3 bench_index_materialization",
         "materializing 10% of each inverted index is adequate");

  // One discovery pass, shared across index builds.
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.005;
  auto discovery = mining::DiscoverGroups(
      data::BookCrossingGenerator::Generate(BxConfig(10000)), dopt);
  VEXUS_CHECK(discovery.ok());
  const mining::GroupStore& store = discovery->groups;
  std::printf("groups=%zu users=%zu\n\n", store.size(), store.num_users());

  index::InvertedIndex::Options full_opt;
  full_opt.materialization_fraction = 1.0;
  full_opt.min_neighbors = 1;
  auto full = index::InvertedIndex::Build(store, full_opt);
  VEXUS_CHECK(full.ok());

  // Anchors for recall / end-task probes.
  Rng rng(5);
  std::vector<mining::GroupId> anchors;
  while (anchors.size() < 30) {
    mining::GroupId g =
        rng.UniformU32(static_cast<uint32_t>(store.size()));
    if (full->Neighbors(g).size() >= 20) anchors.push_back(g);
  }

  // Reference end-task quality with the full index.
  data::Dataset token_world;  // minimal token space over the same universe
  for (size_t u = 0; u < store.num_users(); ++u) {
    token_world.users().AddUser(StrCat("u", u));
  }
  core::TokenSpace tokens(token_world);
  core::FeedbackVector feedback(&tokens);
  core::GreedyOptions gopt;
  gopt.k = 5;
  gopt.time_limit_ms = vexus::core::GreedyOptions::kUnboundedTimeLimit;

  core::GreedySelector full_selector(&store, &*full);
  Series ref_obj;
  for (auto a : anchors) {
    ref_obj.Add(full_selector.SelectNext(a, feedback, gopt).quality.objective);
  }

  PrintRow({"fraction", "postings", "memory_kb", "build_ms", "recall@10",
            "greedy_obj", "obj_vs_full"});
  for (double p : {0.01, 0.05, 0.10, 0.25, 1.0}) {
    index::InvertedIndex::Options opt;
    opt.materialization_fraction = p;
    opt.min_neighbors = 1;
    auto idx = index::InvertedIndex::Build(store, opt);
    VEXUS_CHECK(idx.ok());

    // Recall@10 of the true top-10 neighbors.
    Series recall;
    for (auto a : anchors) {
      auto truth = full->TopK(a, 10);
      std::set<mining::GroupId> got;
      for (const auto& nb : idx->Neighbors(a)) got.insert(nb.group);
      size_t hits = 0;
      for (const auto& t : truth) hits += got.count(t.group);
      if (!truth.empty()) {
        recall.Add(static_cast<double>(hits) /
                   static_cast<double>(truth.size()));
      }
    }

    // End-task quality with this index.
    core::GreedySelector selector(&store, &*idx);
    Series obj;
    for (auto a : anchors) {
      obj.Add(selector.SelectNext(a, feedback, gopt).quality.objective);
    }

    PrintRow({Fmt(p * 100, 0) + "%",
              FmtInt(idx->build_stats().postings),
              FmtInt(idx->build_stats().memory_bytes / 1024),
              Fmt(idx->build_stats().elapsed_ms, 1), Fmt(recall.Mean()),
              Fmt(obj.Mean()),
              Fmt(ref_obj.Mean() > 0 ? obj.Mean() / ref_obj.Mean() : 1.0)});
  }
  std::printf(
      "\nshape check: at 10%% the end-task objective should be within a few "
      "percent of the full index at ~10x smaller postings.\n");
  return 0;
}
