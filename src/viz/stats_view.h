// STATS — the granular-analysis module of paper §II.B:
//
//   "histograms will show an exhaustive list of demographic distributions …
//    The explorer can brush on histograms and constrain the set of users.
//    … An updated list of selected users is shown in a table."
//
// StatsView wires a group's members into a Crossfilter with one dimension
// per demographic attribute (categorical codes or raw numerics) and exposes
// brush / clear / distribution / selected-users operations. Every brush is a
// coordinated update: all other histograms change instantaneously.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "data/dataset.h"
#include "viz/crossfilter.h"

namespace vexus::viz {

class StatsView {
 public:
  /// Builds the view over the members of a group (records are the members,
  /// in ascending UserId order).
  StatsView(const data::Dataset* dataset, const Bitset& members);

  size_t num_members() const { return members_.size(); }

  /// One histogram: labels + current (filtered) counts + total counts.
  struct Distribution {
    std::string attribute;
    std::vector<std::string> labels;
    std::vector<size_t> counts;
  };

  /// The full STATS panel: one distribution per attribute, each respecting
  /// every brush except its own.
  std::vector<Distribution> Distributions() const;

  /// Distribution of a single attribute by name.
  Result<Distribution> DistributionOf(const std::string& attribute) const;

  /// Brush a categorical attribute to the given value names (e.g. gender →
  /// {"female"}). Unknown attribute/value names fail.
  Status Brush(const std::string& attribute,
               const std::vector<std::string>& values);

  /// Brush a numeric attribute to [lo, hi) — except that when `hi` reaches
  /// the attribute's observed maximum the interval is treated as *closed*
  /// at the top. A UI brushing across the whole histogram hands us
  /// [domain min, domain max]; strict right-openness silently dropped every
  /// member sitting exactly on the max (the histogram's last bin shows them,
  /// the selected-users table lost them — the classic right-open off-by-one
  /// at the domain edge).
  Status BrushRange(const std::string& attribute, double lo, double hi);

  /// Remove one attribute's brush.
  Status ClearBrush(const std::string& attribute);

  /// The selected-users table: external ids of members passing all brushes.
  std::vector<std::string> SelectedUsers(size_t limit = 50) const;

  /// Members passing all brushes, as UserIds.
  std::vector<data::UserId> SelectedUserIds() const;

  size_t SelectedCount() const { return filter_->PassingCount(); }

  const Crossfilter& crossfilter() const { return *filter_; }

 private:
  struct AttrBinding {
    data::AttributeId attr;
    Crossfilter::DimensionId dim;
    Crossfilter::GroupId group;
    bool numeric;
    double lo = 0, hi = 0;  // histogram range for numeric
    double data_max = 0;    // largest observed value (BrushRange edge rule)
    size_t bins = 0;
  };

  Result<const AttrBinding*> FindBinding(const std::string& attribute) const;
  Distribution BuildDistribution(const AttrBinding& b) const;

  const data::Dataset* dataset_;
  std::vector<data::UserId> members_;  // record -> UserId
  std::unique_ptr<Crossfilter> filter_;
  std::vector<AttrBinding> bindings_;
};

}  // namespace vexus::viz
