#include "viz/groupviz.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "viz/canvas.h"

namespace vexus::viz {

Result<GroupVizScene> GroupVizScene::Build(
    const data::Dataset& dataset, const mining::GroupStore& store,
    const std::vector<mining::GroupId>& shown, const Options& options) {
  GroupVizScene scene;
  scene.options_ = options;
  if (shown.empty()) return scene;

  std::optional<data::AttributeId> color_attr;
  if (!options.color_attribute.empty()) {
    VEXUS_ASSIGN_OR_RETURN(data::AttributeId id,
                           dataset.schema().Require(options.color_attribute));
    color_attr = id;
  }

  // Radii: area ∝ member count → radius ∝ sqrt, normalized to the range.
  size_t max_size = 1;
  for (mining::GroupId g : shown) {
    max_size = std::max(max_size, store.group(g).size());
  }
  std::vector<double> radii;
  radii.reserve(shown.size());
  for (mining::GroupId g : shown) {
    double frac = std::sqrt(static_cast<double>(store.group(g).size()) /
                            static_cast<double>(max_size));
    radii.push_back(options.min_radius +
                    frac * (options.max_radius - options.min_radius));
  }

  // Edges between non-disjoint shown groups (the visible slice of graph G).
  std::vector<ForceLayout::Link> links;
  for (size_t i = 0; i < shown.size(); ++i) {
    for (size_t j = i + 1; j < shown.size(); ++j) {
      double sim = store.group(shown[i])
                       .members()
                       .Jaccard(store.group(shown[j]).members());
      if (sim > 0) {
        links.push_back(ForceLayout::Link{static_cast<uint32_t>(i),
                                          static_cast<uint32_t>(j), sim});
        scene.edges_.push_back(SceneEdge{i, j, sim});
      }
    }
  }

  ForceLayout::Options lopt;
  lopt.width = options.width;
  lopt.height = options.height;
  lopt.seed = options.layout_seed;
  ForceLayout layout(radii, links, lopt);
  layout.Run();
  scene.overlaps_ = layout.CountOverlaps();

  for (size_t i = 0; i < shown.size(); ++i) {
    const mining::UserGroup& g = store.group(shown[i]);
    CircleSpec c;
    c.group = shown[i];
    c.x = layout.nodes()[i].x;
    c.y = layout.nodes()[i].y;
    c.radius = layout.nodes()[i].radius;
    c.label = StrCat("g", shown[i], " (", WithThousands(g.size()), ")");
    c.description = g.DescriptionString(dataset.schema());

    if (color_attr.has_value()) {
      // Majority value of the color attribute inside the group.
      const data::Attribute& attr = dataset.schema().attribute(*color_attr);
      std::vector<size_t> counts(attr.values().size(), 0);
      g.members().ForEach([&](uint32_t u) {
        data::ValueId v = dataset.users().Value(u, *color_attr);
        if (v != data::kNullValue && v < counts.size()) ++counts[v];
      });
      size_t best = 0;
      for (size_t v = 1; v < counts.size(); ++v) {
        if (counts[v] > counts[best]) best = v;
      }
      c.color = counts.empty() ? PaletteColor(0) : PaletteColor(best);
      if (!counts.empty() && counts[best] > 0) {
        c.description += " | " + attr.name() + "≈" + attr.values().Name(best);
      }
    } else {
      c.color = PaletteColor(0);
    }
    scene.circles_.push_back(std::move(c));
  }
  return scene;
}

std::string GroupVizScene::ToSvg() const {
  SvgCanvas canvas(options_.width, options_.height);
  canvas.Rect(0, 0, options_.width, options_.height, "#fafafa");
  for (const SceneEdge& e : edges_) {
    canvas.Line(circles_[e.a].x, circles_[e.a].y, circles_[e.b].x,
                circles_[e.b].y, "#cccccc", 1.0 + 3.0 * e.weight);
  }
  for (const CircleSpec& c : circles_) {
    canvas.Circle(c.x, c.y, c.radius, c.color, 0.75,
                  c.description + " — " + c.label);
    canvas.Text(c.x - c.radius, c.y - c.radius - 4, c.label, "#555", 11);
  }
  return canvas.ToString();
}

std::string GroupVizScene::ToAscii(size_t cols, size_t rows) const {
  AsciiCanvas canvas(cols, rows);
  double sx = static_cast<double>(cols) / options_.width;
  double sy = static_cast<double>(rows) / options_.height;
  for (size_t i = 0; i < circles_.size(); ++i) {
    const CircleSpec& c = circles_[i];
    char glyph = static_cast<char>('A' + (i % 26));
    canvas.Circle(c.x * sx, c.y * sy, c.radius * sx, glyph,
                  StrCat("g", c.group));
  }
  return canvas.ToString();
}

}  // namespace vexus::viz
