// Stream-mode VEXUS (paper §II.A): user data arriving "as a data stream",
// with STREAMMINING and BIRCH as the group-discovery algorithms.
//
// The example replays a BookCrossing-style action stream, ingests it in
// windows, and after each window re-runs discovery + indexing and opens a
// fresh session on the updated group space — the offline/online split the
// architecture diagram (Fig. 1) shows. Both stream miners are exercised:
// lossy-counting itemsets (demographic groups) and the BIRCH CF-tree
// (behavioral clusters).
//
// Run:  ./build/examples/stream_exploration

#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"
#include "data/stream.h"
#include "mining/birch.h"
#include "mining/stream_mining.h"

using namespace vexus;

int main() {
  // The "full" world the stream will reveal window by window.
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 2000;
  cfg.num_books = 2500;
  cfg.num_ratings = 12000;
  data::Dataset world = data::BookCrossingGenerator::Generate(cfg);
  std::printf("world: %s\n\n", world.Summary().c_str());

  data::DatasetReplayStream stream(&world);
  const size_t kWindow = 3000;

  // Online state: the lossy-counting miner over demographic transactions
  // of users seen so far, and a BIRCH tree over their feature vectors.
  auto catalog = mining::DescriptorCatalog::Build(world);
  mining::StreamMiner::Config scfg;
  scfg.epsilon = 0.002;
  scfg.max_itemset = 2;
  mining::StreamMiner miner(scfg);

  std::vector<std::string> feature_names;
  auto features = mining::BuildFeatureVectors(world, &feature_names);
  mining::BirchTree::Config bcfg;
  bcfg.threshold = 2.0;
  mining::BirchTree birch(features[0].size(), bcfg);

  std::vector<bool> seen(world.num_users(), false);
  data::ActionRecord record;
  size_t window = 0;
  while (true) {
    // Ingest one window of arriving actions; a user's demographics become
    // available the first time they act.
    size_t in_window = 0;
    bool more = true;
    while (in_window < kWindow && (more = stream.Next(&record))) {
      ++in_window;
      if (!seen[record.user]) {
        seen[record.user] = true;
        miner.AddTransaction(catalog.Transaction(record.user));
        birch.Insert(features[record.user], record.user);
      }
    }
    if (in_window == 0) break;
    ++window;

    // Snapshot: materialize current groups from both miners.
    mining::GroupStore groups(world.num_users());
    miner.ExportGroups(catalog, /*support_fraction=*/0.05, &groups);
    size_t itemset_groups = groups.size();
    auto clusters = birch.Cluster(8, world.num_users());
    for (Bitset& members : clusters) {
      if (members.Count() < 20) continue;
      auto label = mining::LabelCluster(world, members, 0.6);
      groups.Add(mining::UserGroup(std::move(label), std::move(members)));
    }

    std::printf("window %zu: %zu actions ingested, %zu users online — "
                "%zu itemset groups + %zu BIRCH clusters (lattice %zu, "
                "CF leaves %zu)\n",
                window, stream.Position(),
                static_cast<size_t>(std::count(seen.begin(), seen.end(),
                                               true)),
                itemset_groups, groups.size() - itemset_groups,
                miner.stats().lattice_entries,
                birch.ComputeStats().leaf_entries);

    if (!more) break;
  }

  // Final window: index the last snapshot and explore it.
  std::printf("\nstream drained; building the index on the final group "
              "space and opening a session…\n");
  mining::GroupStore groups(world.num_users());
  miner.ExportGroups(catalog, 0.05, &groups);
  Bitset all(world.num_users());
  all.SetAll();
  groups.Add(mining::UserGroup({}, std::move(all)));  // root

  index::InvertedIndex::Options iopt;
  iopt.materialization_fraction = 0.10;
  auto idx = index::InvertedIndex::Build(groups, iopt);
  if (!idx.ok()) {
    std::fprintf(stderr, "%s\n", idx.status().ToString().c_str());
    return 1;
  }
  core::TokenSpace tokens(world);
  core::FirstScreenMemo first_screens;
  core::ExplorationSession session(&world, &groups, &*idx, &tokens,
                                   &first_screens, {});
  const auto& shown = session.Start();
  std::printf("\nfirst screen over the streamed group space:\n");
  for (auto g : shown.groups) {
    std::printf("   g%-4u |%5zu users| %s\n", g, groups.group(g).size(),
                groups.group(g).DescriptionString(world.schema()).c_str());
  }
  return 0;
}
