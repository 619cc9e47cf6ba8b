// Schema of user demographics.
//
// VEXUS's generic data model (paper §II.A) is: per-user demographics plus
// action records [user, item, value]. Demographic attributes are either
// categorical (dictionary-coded) or numeric. Numeric attributes are *binned*
// during ETL so that group descriptions — conjunctions of attribute=value
// pairs such as "age=[25,35) ∧ occupation=engineer" — are uniform; the raw
// numeric column is retained for STATS histograms and LDA features.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/dictionary.h"

namespace vexus::data {

using AttributeId = uint32_t;
using ValueId = uint32_t;

/// Sentinel for a missing value in a user column.
inline constexpr ValueId kNullValue = UINT32_MAX;

enum class AttributeKind {
  kCategorical,
  kNumeric,  // binned into categorical codes during ETL
};

/// One demographic attribute: its kind, its value dictionary (categories or
/// bin labels), and — for numeric attributes — the bin edges.
class Attribute {
 public:
  Attribute(std::string name, AttributeKind kind)
      : name_(std::move(name)), kind_(kind) {}

  const std::string& name() const { return name_; }
  AttributeKind kind() const { return kind_; }

  /// Value dictionary (mutable during load/ETL).
  Dictionary& values() { return values_; }
  const Dictionary& values() const { return values_; }

  /// Human-readable name of a value code; "∅" for kNullValue.
  std::string ValueName(ValueId v) const;

  /// --- numeric binning (kNumeric only) ---

  /// Installs ascending bin edges e0 < e1 < ... < en. Bin i covers
  /// [e_i, e_{i+1}) (the last bin is closed above). Also registers bin labels
  /// "[e_i,e_{i+1})" as values. Requires >= 2 edges.
  void SetBinEdges(std::vector<double> edges);

  bool has_bins() const { return bin_edges_.size() >= 2; }

  /// Bin code for a raw numeric value (clamped to first/last bin).
  ValueId BinFor(double raw) const;

 private:
  std::string name_;
  AttributeKind kind_;
  Dictionary values_;
  std::vector<double> bin_edges_;
};

/// Ordered collection of attributes with name lookup.
class Schema {
 public:
  /// Adds an attribute; name must be unique. Returns its id.
  AttributeId AddCategorical(std::string_view name);
  AttributeId AddNumeric(std::string_view name);

  size_t num_attributes() const { return attributes_.size(); }

  Attribute& attribute(AttributeId id);
  const Attribute& attribute(AttributeId id) const;

  std::optional<AttributeId> Find(std::string_view name) const;

  /// Find() that reports a NotFound status with the attribute name.
  Result<AttributeId> Require(std::string_view name) const;

 private:
  AttributeId Add(std::string_view name, AttributeKind kind);

  std::vector<Attribute> attributes_;
  Dictionary name_index_;
};

}  // namespace vexus::data
