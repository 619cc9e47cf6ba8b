#include "viz/session_views.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"

namespace vexus::viz {
namespace {

class SessionViewsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 400;
    cfg.num_books = 400;
    cfg.num_ratings = 2500;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = 0.04;
    engine_ = new core::VexusEngine(std::move(
        core::VexusEngine::Preprocess(
            data::BookCrossingGenerator::Generate(cfg), opt, {})
            .ValueOrDie()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static core::VexusEngine* engine_;
};

core::VexusEngine* SessionViewsTest::engine_ = nullptr;

TEST_F(SessionViewsTest, ContextEmptyBeforeAnyClick) {
  auto s = engine_->CreateSession({});
  s->Start();
  std::string ctx = RenderContext(*s);
  EXPECT_NE(ctx.find("CONTEXT"), std::string::npos);
  EXPECT_NE(ctx.find("empty"), std::string::npos);
}

TEST_F(SessionViewsTest, ContextShowsTokensAfterClick) {
  auto s = engine_->CreateSession({});
  const auto& first = s->Start();
  s->SelectGroup(first.groups.front());
  std::string ctx = RenderContext(*s, 3);
  EXPECT_EQ(ctx.find("empty"), std::string::npos);
  EXPECT_NE(ctx.find("["), std::string::npos);
  // At most 3 token lines (+ header).
  size_t lines = std::count(ctx.begin(), ctx.end(), '\n');
  EXPECT_LE(lines, 4u);
}

TEST_F(SessionViewsTest, HistoryShowsTrailAndTruncatesOnBacktrack) {
  auto s = engine_->CreateSession({});
  const auto& first = s->Start();
  mining::GroupId g0 = first.groups[0];
  const auto& second = s->SelectGroup(g0);
  std::string h = RenderHistory(*s);
  EXPECT_NE(h.find("start"), std::string::npos);
  EXPECT_NE(h.find(StrCat("g", g0)), std::string::npos);
  EXPECT_NE(h.find("(current)"), std::string::npos);

  if (!second.groups.empty()) {
    mining::GroupId g1 = second.groups[0];
    s->SelectGroup(g1);
    ASSERT_TRUE(s->Backtrack(1).ok());
    std::string h2 = RenderHistory(*s);
    EXPECT_EQ(h2.find(" -> g" + std::to_string(g1) + " "),
              std::string::npos);
  }
}

TEST_F(SessionViewsTest, MemoListsBookmarks) {
  auto s = engine_->CreateSession({});
  const auto& first = s->Start();
  s->BookmarkGroup(first.groups[0]);
  s->BookmarkUser(7);
  std::string memo = RenderMemo(*s);
  EXPECT_NE(memo.find("1 group(s), 1 user(s)"), std::string::npos);
  EXPECT_NE(memo.find(StrCat("g", first.groups[0])),
            std::string::npos);
  EXPECT_NE(memo.find(engine_->dataset().users().ExternalId(7)),
            std::string::npos);
}

TEST_F(SessionViewsTest, MemoTruncatesUserList) {
  auto s = engine_->CreateSession({});
  s->Start();
  for (data::UserId u = 0; u < 30; ++u) s->BookmarkUser(u);
  std::string memo = RenderMemo(*s, 5);
  EXPECT_NE(memo.find("and 25 more users"), std::string::npos);
}

TEST_F(SessionViewsTest, DashboardCombinesAllPanels) {
  auto s = engine_->CreateSession({});
  // Copy out of the returned reference: it is invalidated by the next
  // SelectGroup (documented on ExplorationSession).
  mining::GroupId clicked = s->Start().groups.front();
  s->SelectGroup(clicked);
  s->BookmarkGroup(clicked);
  std::string dash = RenderDashboard(*s);
  EXPECT_NE(dash.find("HISTORY"), std::string::npos);
  EXPECT_NE(dash.find("CONTEXT"), std::string::npos);
  EXPECT_NE(dash.find("GROUPVIZ"), std::string::npos);
  EXPECT_NE(dash.find("MEMO"), std::string::npos);
  EXPECT_NE(dash.find("diversity"), std::string::npos);
}

}  // namespace
}  // namespace vexus::viz
