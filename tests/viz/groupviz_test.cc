#include "viz/groupviz.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vexus::viz {
namespace {

struct World {
  World() : store(100) {
    gender = ds.schema().AddCategorical("gender");
    for (int i = 0; i < 100; ++i) {
      data::UserId u = ds.users().AddUser(StrCat("u", i));
      ds.users().SetValueByName(u, gender, i % 3 == 0 ? "f" : "m");
    }
    auto range = [](uint32_t lo, uint32_t hi) {
      std::vector<uint32_t> v;
      for (uint32_t i = lo; i < hi; ++i) v.push_back(i);
      return Bitset::FromVector(100, v);
    };
    g0 = store.Add(mining::UserGroup({{0, 0}}, range(0, 60)));
    g1 = store.Add(mining::UserGroup({{0, 1}}, range(50, 80)));
    g2 = store.Add(mining::UserGroup({{0, 0}, {0, 1}}, range(90, 95)));
  }
  data::Dataset ds;
  data::AttributeId gender;
  mining::GroupStore store;
  mining::GroupId g0, g1, g2;
};

TEST(GroupVizTest, BuildsOneCirclePerGroup) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1, w.g2});
  ASSERT_TRUE(scene.ok());
  EXPECT_EQ(scene->circles().size(), 3u);
}

TEST(GroupVizTest, CircleSizeReflectsMembership) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1, w.g2});
  ASSERT_TRUE(scene.ok());
  // g0 (60 users) > g1 (30) > g2 (5).
  EXPECT_GT(scene->circles()[0].radius, scene->circles()[1].radius);
  EXPECT_GT(scene->circles()[1].radius, scene->circles()[2].radius);
}

TEST(GroupVizTest, NoVisualClutter) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1, w.g2});
  ASSERT_TRUE(scene.ok());
  EXPECT_EQ(scene->overlaps(), 0u);
}

TEST(GroupVizTest, DescriptionsBecomeTooltips) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0});
  ASSERT_TRUE(scene.ok());
  EXPECT_NE(scene->circles()[0].description.find("gender="),
            std::string::npos);
}

TEST(GroupVizTest, ColorByAttribute) {
  World w;
  GroupVizScene::Options opt;
  opt.color_attribute = "gender";
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1}, opt);
  ASSERT_TRUE(scene.ok());
  for (const auto& c : scene->circles()) {
    EXPECT_EQ(c.color.front(), '#');
  }
}

TEST(GroupVizTest, UnknownColorAttributeFails) {
  World w;
  GroupVizScene::Options opt;
  opt.color_attribute = "ghost";
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0}, opt);
  EXPECT_FALSE(scene.ok());
  EXPECT_TRUE(scene.status().IsNotFound());
}

TEST(GroupVizTest, SvgContainsCirclesAndEdges) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1});
  ASSERT_TRUE(scene.ok());
  std::string svg = scene->ToSvg();
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  // g0 and g1 overlap on [50,60) -> an edge line must be drawn.
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("<title>"), std::string::npos);
}

TEST(GroupVizTest, AsciiRendersLabels) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1});
  ASSERT_TRUE(scene.ok());
  std::string art = scene->ToAscii(80, 24);
  EXPECT_NE(art.find('A'), std::string::npos);
  EXPECT_NE(art.find('B'), std::string::npos);
}

TEST(GroupVizTest, EmptySelection) {
  World w;
  auto scene = GroupVizScene::Build(w.ds, w.store, {});
  ASSERT_TRUE(scene.ok());
  EXPECT_TRUE(scene->circles().empty());
  EXPECT_NE(scene->ToSvg().find("<svg"), std::string::npos);
}

TEST(GroupVizTest, DeterministicLayout) {
  World w;
  auto a = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1, w.g2});
  auto b = GroupVizScene::Build(w.ds, w.store, {w.g0, w.g1, w.g2});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToSvg(), b->ToSvg());
}

}  // namespace
}  // namespace vexus::viz
