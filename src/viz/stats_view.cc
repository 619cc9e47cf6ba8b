#include "viz/stats_view.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace vexus::viz {

StatsView::StatsView(const data::Dataset* dataset, const Bitset& members)
    : dataset_(dataset) {
  VEXUS_CHECK(dataset != nullptr);
  VEXUS_CHECK(members.size() == dataset->num_users());
  members_ = std::vector<data::UserId>();
  members_.reserve(members.Count());
  members.ForEach([this](uint32_t u) { members_.push_back(u); });

  filter_ = std::make_unique<Crossfilter>(members_.size());

  const data::Schema& schema = dataset->schema();
  for (data::AttributeId a = 0; a < schema.num_attributes(); ++a) {
    const data::Attribute& attr = schema.attribute(a);
    AttrBinding b;
    b.attr = a;
    if (attr.kind() == data::AttributeKind::kNumeric) {
      b.numeric = true;
      std::vector<double> vals(members_.size());
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < members_.size(); ++r) {
        vals[r] = dataset->users().Numeric(members_[r], a);
        if (!std::isnan(vals[r])) {
          lo = std::min(lo, vals[r]);
          hi = std::max(hi, vals[r]);
        }
      }
      if (!(lo < hi)) {  // all-missing or constant column
        lo = std::isfinite(lo) ? lo : 0.0;
        hi = lo + 1.0;
      }
      b.lo = lo;
      b.data_max = hi;
      b.hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
      b.bins = 10;
      b.dim = filter_->AddNumericDimension(std::move(vals));
      b.group = filter_->AddHistogram(b.dim, b.bins, b.lo, b.hi);
    } else {
      b.numeric = false;
      std::vector<uint32_t> codes(members_.size());
      for (size_t r = 0; r < members_.size(); ++r) {
        codes[r] = dataset->users().Value(members_[r], a);
      }
      b.bins = attr.values().size();
      b.dim = filter_->AddCategoricalDimension(std::move(codes), b.bins);
      b.group = filter_->AddCategoryCounts(b.dim);
    }
    bindings_.push_back(b);
  }
}

Result<const StatsView::AttrBinding*> StatsView::FindBinding(
    const std::string& attribute) const {
  VEXUS_ASSIGN_OR_RETURN(data::AttributeId id,
                         dataset_->schema().Require(attribute));
  for (const AttrBinding& b : bindings_) {
    if (b.attr == id) return &b;
  }
  return Status::NotFound("attribute '" + attribute + "' has no binding");
}

StatsView::Distribution StatsView::BuildDistribution(
    const AttrBinding& b) const {
  const data::Attribute& attr = dataset_->schema().attribute(b.attr);
  Distribution d;
  d.attribute = attr.name();
  d.counts = filter_->Counts(b.group);
  if (b.numeric) {
    double width = (b.hi - b.lo) / static_cast<double>(b.bins);
    for (size_t i = 0; i < b.bins; ++i) {
      d.labels.push_back(
          vexus::StrCat("[", vexus::FormatDouble(b.lo + width * i, 2), ",",
                        vexus::FormatDouble(b.lo + width * (i + 1), 2), ")"));
    }
  } else {
    for (data::ValueId v = 0; v < attr.values().size(); ++v) {
      d.labels.push_back(attr.values().Name(v));
    }
  }
  return d;
}

std::vector<StatsView::Distribution> StatsView::Distributions() const {
  std::vector<Distribution> out;
  out.reserve(bindings_.size());
  for (const AttrBinding& b : bindings_) out.push_back(BuildDistribution(b));
  return out;
}

Result<StatsView::Distribution> StatsView::DistributionOf(
    const std::string& attribute) const {
  VEXUS_ASSIGN_OR_RETURN(const AttrBinding* b, FindBinding(attribute));
  return BuildDistribution(*b);
}

Status StatsView::Brush(const std::string& attribute,
                        const std::vector<std::string>& values) {
  VEXUS_ASSIGN_OR_RETURN(const AttrBinding* b, FindBinding(attribute));
  if (b->numeric) {
    return Status::InvalidArgument("attribute '" + attribute +
                                   "' is numeric; use BrushRange");
  }
  const data::Attribute& attr = dataset_->schema().attribute(b->attr);
  std::vector<uint32_t> codes;
  for (const std::string& v : values) {
    auto code = attr.values().Find(v);
    if (!code.has_value()) {
      return Status::NotFound("value '" + v + "' not in attribute '" +
                              attribute + "'");
    }
    codes.push_back(*code);
  }
  filter_->FilterValues(b->dim, codes);
  return Status::OK();
}

Status StatsView::BrushRange(const std::string& attribute, double lo,
                             double hi) {
  VEXUS_ASSIGN_OR_RETURN(const AttrBinding* b, FindBinding(attribute));
  if (!b->numeric) {
    return Status::InvalidArgument("attribute '" + attribute +
                                   "' is categorical; use Brush");
  }
  // Closed-at-the-top edge rule (see the header): a brush whose upper edge
  // reaches the observed maximum must keep max-valued members. Nudging hi
  // one ulp up turns [lo, max] into [lo, nextafter(max)) — the same trick
  // the constructor uses for the histogram domain — while any hi strictly
  // below the max keeps exact right-open semantics.
  if (hi >= b->data_max) {
    hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
  }
  filter_->FilterRange(b->dim, lo, hi);
  return Status::OK();
}

Status StatsView::ClearBrush(const std::string& attribute) {
  VEXUS_ASSIGN_OR_RETURN(const AttrBinding* b, FindBinding(attribute));
  filter_->ClearFilter(b->dim);
  return Status::OK();
}

std::vector<std::string> StatsView::SelectedUsers(size_t limit) const {
  std::vector<std::string> out;
  Bitset passing = filter_->PassingSet();
  passing.ForEach([&](uint32_t r) {
    if (out.size() < limit) {
      out.push_back(dataset_->users().ExternalId(members_[r]));
    }
  });
  return out;
}

std::vector<data::UserId> StatsView::SelectedUserIds() const {
  std::vector<data::UserId> out;
  Bitset passing = filter_->PassingSet();
  passing.ForEach([&](uint32_t r) { out.push_back(members_[r]); });
  return out;
}

}  // namespace vexus::viz
