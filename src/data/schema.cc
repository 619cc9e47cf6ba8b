#include "data/schema.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace vexus::data {

std::string Attribute::ValueName(ValueId v) const {
  if (v == kNullValue) return "∅";
  return values_.Name(v);
}

void Attribute::SetBinEdges(std::vector<double> edges) {
  VEXUS_CHECK(kind_ == AttributeKind::kNumeric)
      << "bins on non-numeric attribute " << name_;
  VEXUS_CHECK(edges.size() >= 2) << "need at least 2 bin edges";
  for (size_t i = 1; i < edges.size(); ++i) {
    VEXUS_CHECK(edges[i - 1] < edges[i]) << "bin edges must be ascending";
  }
  bin_edges_ = std::move(edges);
  for (size_t i = 0; i + 1 < bin_edges_.size(); ++i) {
    values_.GetOrAdd(vexus::StrCat("[", vexus::FormatDouble(bin_edges_[i], 3),
                                   ",",
                                   vexus::FormatDouble(bin_edges_[i + 1], 3),
                                   ")"));
  }
}

ValueId Attribute::BinFor(double raw) const {
  VEXUS_DCHECK(has_bins()) << "BinFor on attribute without bins: " << name_;
  size_t nbins = bin_edges_.size() - 1;
  if (raw < bin_edges_.front()) return 0;
  if (raw >= bin_edges_.back()) return static_cast<ValueId>(nbins - 1);
  // Binary search for the bin containing raw.
  size_t lo = 0, hi = nbins - 1;
  while (lo < hi) {
    size_t mid = (lo + hi + 1) / 2;
    if (raw >= bin_edges_[mid]) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return static_cast<ValueId>(lo);
}

AttributeId Schema::AddCategorical(std::string_view name) {
  return Add(name, AttributeKind::kCategorical);
}

AttributeId Schema::AddNumeric(std::string_view name) {
  return Add(name, AttributeKind::kNumeric);
}

AttributeId Schema::Add(std::string_view name, AttributeKind kind) {
  VEXUS_CHECK(!name_index_.Find(name).has_value())
      << "duplicate attribute " << name;
  AttributeId id = name_index_.GetOrAdd(name);
  attributes_.emplace_back(std::string(name), kind);
  return id;
}

Attribute& Schema::attribute(AttributeId id) {
  VEXUS_DCHECK(id < attributes_.size());
  return attributes_[id];
}

const Attribute& Schema::attribute(AttributeId id) const {
  VEXUS_DCHECK(id < attributes_.size());
  return attributes_[id];
}

std::optional<AttributeId> Schema::Find(std::string_view name) const {
  return name_index_.Find(name);
}

Result<AttributeId> Schema::Require(std::string_view name) const {
  auto id = Find(name);
  if (!id.has_value()) {
    return Status::NotFound("no attribute named '" + std::string(name) + "'");
  }
  return *id;
}

}  // namespace vexus::data
