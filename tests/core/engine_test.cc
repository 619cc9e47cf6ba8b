#include "core/engine.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "data/generators/bookcrossing_gen.h"
#include "data/generators/dbauthors_gen.h"

namespace vexus::core {
namespace {

data::Dataset SmallBx(uint32_t users = 500) {
  data::BookCrossingGenerator::Config cfg;
  cfg.num_users = users;
  cfg.num_books = 600;
  cfg.num_ratings = 3000;
  return data::BookCrossingGenerator::Generate(cfg);
}

TEST(EngineTest, PreprocessBuildsAllStructures) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto engine = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(engine->groups().size(), 10u);
  EXPECT_EQ(engine->index().num_groups(), engine->groups().size());
  EXPECT_EQ(engine->dataset().num_users(), 500u);
  EXPECT_GT(engine->catalog().size(), 0u);
}

TEST(EngineTest, RootGroupFound) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto engine = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(engine.ok());
  auto root = engine->RootGroup();
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(engine->groups().group(*root).size(), 500u);
}

TEST(EngineTest, RootAbsentWhenDisabled) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  opt.emit_root = false;
  auto engine = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->RootGroup().has_value());
}

TEST(EngineTest, FailsOnEmptyDataset) {
  data::Dataset empty;
  auto engine = VexusEngine::Preprocess(std::move(empty), {}, {});
  EXPECT_FALSE(engine.ok());
}

TEST(EngineTest, FailsWhenNoGroupsSurviveSupport) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 2.0;  // impossible threshold (> all users)
  opt.emit_root = false;
  auto engine = VexusEngine::Preprocess(SmallBx(100), opt, {});
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsFailedPrecondition());
}

TEST(EngineTest, SessionsAreIndependent) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto engine = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(engine.ok());
  auto s1 = engine->CreateSession({});
  auto s2 = engine->CreateSession({});
  const auto& first1 = s1->Start();
  s2->Start();
  s1->SelectGroup(first1.groups[0]);
  EXPECT_EQ(s1->NumSteps(), 2u);
  EXPECT_EQ(s2->NumSteps(), 1u);
  EXPECT_TRUE(s2->feedback().Empty());
  EXPECT_FALSE(s1->feedback().Empty());
}

TEST(EngineTest, SummaryContainsKeyFigures) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto engine = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(engine.ok());
  std::string s = engine->Summary();
  EXPECT_NE(s.find("groups:"), std::string::npos);
  EXPECT_NE(s.find("index:"), std::string::npos);
}

TEST(EngineTest, WorksOnDbAuthors) {
  data::DbAuthorsGenerator::Config cfg;
  cfg.num_authors = 500;
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.04;
  auto engine = VexusEngine::Preprocess(
      data::DbAuthorsGenerator::Generate(cfg), opt, {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto session = engine->CreateSession({});
  const auto& first = session->Start();
  EXPECT_FALSE(first.groups.empty());
}

TEST(EngineTest, IndexOptionsPropagate) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  index::InvertedIndex::Options ten_pct;
  ten_pct.materialization_fraction = 0.10;
  ten_pct.min_neighbors = 1;
  index::InvertedIndex::Options full;
  full.materialization_fraction = 1.0;
  full.min_neighbors = 1;
  auto small = VexusEngine::Preprocess(SmallBx(), opt, ten_pct);
  auto big = VexusEngine::Preprocess(SmallBx(), opt, full);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_LT(small->index().build_stats().postings,
            big->index().build_stats().postings);
}

std::string TempPath(const char* name) { return ::testing::TempDir() + name; }

/// Preprocesses SmallBx() and snapshots the result to `path` (no fsync:
/// these tests exercise the load path, not the durability protocol).
void WriteEngineSnapshot(const std::string& path) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto mined = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  SnapshotSaveOptions save;
  save.sync = false;
  ASSERT_TRUE(SaveSnapshot(mined->groups(), mined->index(), path, save).ok());
}

TEST(EngineSnapshotTest, FromSnapshotServesSessionsLikePreprocess) {
  mining::DiscoveryOptions opt;
  opt.min_support_fraction = 0.03;
  auto mined = VexusEngine::Preprocess(SmallBx(), opt, {});
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  const std::string path = TempPath("engine_coldstart.snap");
  SnapshotSaveOptions save;
  save.sync = false;
  ASSERT_TRUE(SaveSnapshot(mined->groups(), mined->index(), path, save).ok());

  // The generator is deterministic: a fresh dataset from the same config is
  // the one the snapshot was preprocessed from.
  auto warmed = VexusEngine::FromSnapshot(SmallBx(), path);
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  EXPECT_EQ(warmed->groups().size(), mined->groups().size());
  EXPECT_EQ(warmed->index().num_groups(), mined->index().num_groups());
  EXPECT_GT(warmed->catalog().size(), 0u);  // rebuilt, not persisted
  ASSERT_TRUE(warmed->RootGroup().has_value());

  // The restored engine serves sessions end to end.
  auto session = warmed->CreateSession({});
  const auto& first = session->Start();
  ASSERT_FALSE(first.groups.empty());
  session->SelectGroup(first.groups[0]);
  EXPECT_EQ(session->NumSteps(), 2u);
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, FromSnapshotRejectsWrongUniverse) {
  const std::string path = TempPath("engine_universe.snap");
  WriteEngineSnapshot(path);  // 500-user universe
  auto r = VexusEngine::FromSnapshot(SmallBx(400), path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, FromSnapshotFailsOnMissingFile) {
  auto miss =
      VexusEngine::FromSnapshot(SmallBx(), TempPath("no_such_file.snap"));
  ASSERT_FALSE(miss.ok());
}

}  // namespace
}  // namespace vexus::core
