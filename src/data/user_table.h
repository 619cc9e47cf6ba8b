// Columnar storage of users and their demographics.
//
// Layout is column-per-attribute (dictionary codes in a flat uint32 vector,
// plus a parallel raw-double column for numeric attributes) so that STATS
// histograms, crossfilter dimensions, and the mining layer's vertical
// item-bitmap construction are all sequential scans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitset.h"
#include "data/schema.h"

namespace vexus::data {

using UserId = uint32_t;

class UserTable {
 public:
  /// The table's columns track `schema`; the schema object must outlive the
  /// table and attributes must be added before users.
  explicit UserTable(Schema* schema);

  size_t size() const { return external_ids_.size(); }

  /// Adds a user with all demographics null. External ids must be unique
  /// (enforced by the dictionary; re-adding returns the existing user).
  UserId AddUser(std::string_view external_id);

  /// External (source) identifier for a user.
  const std::string& ExternalId(UserId u) const;

  /// Id of the user with this external identifier, if present.
  std::optional<UserId> FindUser(std::string_view external_id) const;

  /// Sets a categorical value by code.
  void SetValue(UserId u, AttributeId a, ValueId v);

  /// Sets a categorical value by name, inserting it into the attribute's
  /// dictionary if new.
  void SetValueByName(UserId u, AttributeId a, std::string_view value);

  /// Sets the raw numeric value; the code column is populated later by
  /// ApplyBins (ETL decides the edges).
  void SetNumeric(UserId u, AttributeId a, double raw);

  /// Dictionary code of user u for attribute a (kNullValue if missing).
  ValueId Value(UserId u, AttributeId a) const;

  /// Raw numeric value (NaN if missing or non-numeric attribute).
  double Numeric(UserId u, AttributeId a) const;

  bool IsNull(UserId u, AttributeId a) const {
    return Value(u, a) == kNullValue;
  }

  /// Recomputes the code column of a numeric attribute from its bin edges
  /// (Attribute::SetBinEdges must have been called).
  void ApplyBins(AttributeId a);

  /// Set of users with Value(u, a) == v.
  Bitset UsersWithValue(AttributeId a, ValueId v) const;

  /// Count of non-null entries in a column.
  size_t NonNullCount(AttributeId a) const;

  const Schema& schema() const { return *schema_; }

 private:
  void EnsureColumns();

  Schema* schema_;
  Dictionary external_;  // external-id dictionary; id == UserId
  std::vector<std::string> external_ids_;
  /// codes_[a][u] = dictionary code (kNullValue when missing)
  std::vector<std::vector<ValueId>> codes_;
  /// raw_[a][u] = raw numeric (NaN when missing); empty for categorical
  std::vector<std::vector<double>> raw_;
};

}  // namespace vexus::data
