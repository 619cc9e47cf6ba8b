// Integration tests: the full VEXUS pipeline — ETL/generators → discovery →
// index → interactive session → viz — exercised the way the examples and
// the paper's scenarios use it.
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/simulated_explorer.h"
#include "data/etl.h"
#include "data/generators/bookcrossing_gen.h"
#include "data/generators/dbauthors_gen.h"
#include "viz/groupviz.h"
#include "viz/projection.h"
#include "viz/stats_view.h"

namespace vexus {
namespace {

using core::VexusEngine;

TEST(EndToEndTest, CsvToExplorationViaEtl) {
  // A miniature CSV world with a planted structure.
  std::string users = "user_id,gender,age\n";
  std::string actions = "user,item,value,category\n";
  for (int i = 0; i < 120; ++i) {
    bool young_f = i < 60;
    users += StrCat("u", i) + "," + (young_f ? "F" : "M") + "," +
             std::to_string(young_f ? 20 + i % 5 : 50 + i % 9) + "\n";
    // Disjoint book pools per cohort: an item has one category, so cohorts
    // must not share books with conflicting genres.
    int book = (i % 10) + (young_f ? 0 : 10);
    actions += StrCat("u", i) + ",book" + std::to_string(book) +
               ",8," + (young_f ? "romance" : "history") + "\n";
  }
  std::istringstream u(users), a(actions);
  data::EtlPipeline etl;
  auto ds = etl.Run(&u, &a);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.1;
  dopt.max_description = 5;
  auto engine = VexusEngine::Preprocess(std::move(ds).ValueOrDie(), dopt, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // The planted cluster "gender=f ∧ favorite=romance" must exist as a group
  // with all 60 planted members (more specific refinements of it may also
  // exist; we require the full-size one).
  bool found = false;
  for (const auto& g : engine->groups().groups()) {
    std::string desc = g.DescriptionString(engine->dataset().schema());
    if (desc.find("gender=f") != std::string::npos &&
        desc.find("favorite_category=romance") != std::string::npos &&
        g.size() == 60) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  auto session = engine->CreateSession({});
  const auto& first = session->Start();
  EXPECT_FALSE(first.groups.empty());
}

TEST(EndToEndTest, Scenario1ExpertSetWorkflow) {
  // Paper Scenario 1: PC chair collects venue experts (MT).
  data::DbAuthorsGenerator::Config cfg;
  cfg.num_authors = 700;
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.02;
  auto engine = VexusEngine::Preprocess(
      data::DbAuthorsGenerator::Generate(cfg), dopt, {});
  ASSERT_TRUE(engine.ok());

  // Targets: data-management authors (the community of a SIGMOD PC).
  const auto& ds = engine->dataset();
  auto topic = *ds.schema().Find("topic");
  auto dm = ds.schema().attribute(topic).values().Find("data management");
  ASSERT_TRUE(dm.has_value());
  Bitset targets = ds.users().UsersWithValue(topic, *dm);

  auto session = engine->CreateSession({});
  core::SimulatedExplorer::Options eopt;
  eopt.max_iterations = 15;
  eopt.mt_quota = 15;
  eopt.mt_inspectable_size = 120;
  core::SimulatedExplorer explorer(eopt);
  auto outcome = explorer.RunMultiTarget(session.get(), targets);
  EXPECT_GT(session->memo().users.size(), 0u);
  EXPECT_GT(outcome.goal_quality, 0.0);
  // CONTEXT should reflect accumulated preference.
  EXPECT_FALSE(session->feedback().Empty());
}

TEST(EndToEndTest, Scenario2BookClubWorkflow) {
  // Paper Scenario 2: reader looks for a discussion group (ST).
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 800;
  cfg.num_books = 900;
  cfg.num_ratings = 6000;
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.02;
  auto engine = VexusEngine::Preprocess(
      data::BookCrossingGenerator::Generate(cfg), dopt, {});
  ASSERT_TRUE(engine.ok());

  // Hidden target: fiction lovers.
  const auto& ds = engine->dataset();
  auto fav = *ds.schema().Find("favorite_genre");
  auto fiction = ds.schema().attribute(fav).values().Find("fiction");
  ASSERT_TRUE(fiction.has_value());
  Bitset target = ds.users().UsersWithValue(fav, *fiction);
  ASSERT_GT(target.Count(), 10u);

  auto session = engine->CreateSession({});
  core::SimulatedExplorer::Options eopt;
  eopt.max_iterations = 15;
  eopt.st_success_similarity = 0.5;
  core::SimulatedExplorer explorer(eopt);
  auto outcome = explorer.RunSingleTarget(session.get(), target);
  EXPECT_GT(outcome.goal_quality, 0.2)
      << "the explorer should land near the fiction-lovers group";
}

TEST(EndToEndTest, GranularAnalysisWorkflow) {
  // §II.B Granular Analysis: pick a group, STATS histograms, brush, and the
  // Focus View LDA projection of its members.
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 500;
  cfg.num_books = 600;
  cfg.num_ratings = 3000;
  mining::DiscoveryOptions dopt;
  dopt.min_support_fraction = 0.05;
  auto engine = VexusEngine::Preprocess(
      data::BookCrossingGenerator::Generate(cfg), dopt, {});
  ASSERT_TRUE(engine.ok());

  // Pick a mid-size group.
  mining::GroupId focus = 0;
  for (mining::GroupId g = 0; g < engine->groups().size(); ++g) {
    size_t sz = engine->groups().group(g).size();
    if (sz >= 50 && sz <= 300) {
      focus = g;
      break;
    }
  }
  const Bitset& members = engine->groups().group(focus).members();

  // STATS with a brush.
  viz::StatsView stats(&engine->dataset(), members);
  auto dists = stats.Distributions();
  EXPECT_EQ(dists.size(), engine->dataset().schema().num_attributes());
  ASSERT_TRUE(stats.Brush("occupation", {"student"}).ok());
  EXPECT_LE(stats.SelectedCount(), stats.num_members());

  // Focus View: LDA colored by gender-like attribute (occupation here).
  std::vector<std::string> names;
  auto features = mining::BuildFeatureVectors(engine->dataset(), &names);
  std::vector<std::vector<double>> rows;
  std::vector<uint32_t> labels;
  auto occ = *engine->dataset().schema().Find("occupation");
  members.ForEach([&](uint32_t u) {
    rows.push_back(features[u]);
    auto v = engine->dataset().users().Value(u, occ);
    labels.push_back(v == data::kNullValue ? 999 : v);
  });
  auto proj = viz::LinearDiscriminantAnalysis::Project(rows, labels);
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  EXPECT_EQ(proj->points.size(), rows.size());

  // GROUPVIZ scene of the current screen.
  auto session = engine->CreateSession({});
  const auto& shown = session->Start();
  viz::GroupVizScene::Options vopt;
  vopt.color_attribute = "occupation";
  auto scene =
      viz::GroupVizScene::Build(engine->dataset(), engine->groups(),
                                shown.groups, vopt);
  ASSERT_TRUE(scene.ok());
  EXPECT_EQ(scene->circles().size(), shown.groups.size());
  EXPECT_EQ(scene->overlaps(), 0u);
}

TEST(EndToEndTest, StreamAndBatchDiscoveryAgreeOnBigGroups) {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 600;
  cfg.num_books = 700;
  cfg.num_ratings = 3500;
  data::Dataset ds_batch = data::BookCrossingGenerator::Generate(cfg);
  data::Dataset ds_stream = data::BookCrossingGenerator::Generate(cfg);

  mining::DiscoveryOptions batch;
  batch.min_support_fraction = 0.15;
  batch.max_description = 2;
  mining::DiscoveryOptions stream = batch;
  stream.algorithm = mining::DiscoveryAlgorithm::kStream;
  stream.stream_epsilon = 0.005;

  auto rb = mining::DiscoverGroups(ds_batch, batch);
  auto rs = mining::DiscoverGroups(ds_stream, stream);
  ASSERT_TRUE(rb.ok() && rs.ok());

  // Every batch group must have a stream counterpart with the same extent
  // (lossy counting guarantees no false negatives above the threshold).
  size_t matched = 0, total = 0;
  for (const auto& g : rb->groups.groups()) {
    if (g.description().empty()) continue;
    ++total;
    for (const auto& h : rs->groups.groups()) {
      if (h.members() == g.members()) {
        ++matched;
        break;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(matched, total);
}

TEST(EndToEndTest, SaveAndReimportRoundTrip) {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = 150;
  cfg.num_books = 200;
  cfg.num_ratings = 800;
  data::Dataset original = data::BookCrossingGenerator::Generate(cfg);
  // The CSV round trip goes through ETL, which dedups (user, item) pairs;
  // normalize the original the same way, and count only items that appear
  // in at least one action (unrated items are not serialized).
  original.actions().DeduplicateKeepLast();
  std::set<data::ItemId> rated;
  for (const auto& r : original.actions().records()) rated.insert(r.item);

  std::ostringstream users_out, actions_out;
  original.SaveUsersCsv(&users_out);
  original.SaveActionsCsv(&actions_out);

  std::istringstream users_in(users_out.str());
  std::istringstream actions_in(actions_out.str());
  data::EtlOptions opt;
  opt.derive_activity_level = false;   // original already has "activity"
  opt.derive_favorite_category = false;
  data::EtlPipeline etl(opt);
  auto reimported = etl.Run(&users_in, &actions_in);
  ASSERT_TRUE(reimported.ok()) << reimported.status().ToString();
  EXPECT_EQ(reimported->num_users(), original.num_users());
  EXPECT_EQ(reimported->num_actions(), original.num_actions());
  EXPECT_EQ(reimported->num_items(), rated.size());
}

}  // namespace
}  // namespace vexus
