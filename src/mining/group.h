// UserGroup: the central object of VEXUS — "any set of users with at least
// one demographic or action in common" (§I), i.e. a conjunctive description
// over attribute=value pairs plus the extent (member set) it selects.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "data/schema.h"
#include "data/user_table.h"

namespace vexus::mining {

using GroupId = uint32_t;

/// One attribute=value conjunct of a group description.
struct Descriptor {
  data::AttributeId attribute = 0;
  data::ValueId value = 0;

  friend bool operator==(const Descriptor& a, const Descriptor& b) {
    return a.attribute == b.attribute && a.value == b.value;
  }
  friend bool operator<(const Descriptor& a, const Descriptor& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    return a.value < b.value;
  }
};

/// A user group: sorted conjunctive description + member bitset. Members
/// are immutable after construction, so the cached size never goes stale.
/// Every group is dense: the select path's hottest member operation is the
/// per-token membership probe in FeedbackVector::GroupPrior, which reads one
/// word of the member bitset (DESIGN.md §14.2).
class UserGroup {
 public:
  UserGroup() = default;
  UserGroup(std::vector<Descriptor> description, Bitset members);

  const std::vector<Descriptor>& description() const { return description_; }
  const Bitset& members() const { return members_; }

  /// Number of members (cached at construction).
  size_t size() const { return size_; }

  bool ContainsUser(data::UserId u) const { return members_.Test(u); }

  /// Human-readable description, e.g. "gender=female ∧ topic=web search".
  /// Groups with empty descriptions (e.g. BIRCH clusters before labeling)
  /// render as "<cluster>".
  std::string DescriptionString(const data::Schema& schema) const;

  /// 64-bit hash of the description (order-independent since sorted).
  uint64_t DescriptionHash() const;

 private:
  std::vector<Descriptor> description_;  // sorted, unique
  Bitset members_;
  size_t size_ = 0;
};

/// Append-only collection of groups over one user universe, with
/// description-level deduplication.
class GroupStore {
 public:
  explicit GroupStore(size_t num_users) : num_users_(num_users) {}

  /// Adds a group; returns its id. Duplicate descriptions (same hash and
  /// conjuncts) return the existing id.
  GroupId Add(UserGroup group);

  /// Adds a group at the next id without deduplication. A shard load needs
  /// this: two groups that share a description (BIRCH labels can) may
  /// coincide inside one shard's range yet must keep their own ids.
  GroupId Append(UserGroup group);

  size_t size() const { return groups_.size(); }
  size_t num_users() const { return num_users_; }

  const UserGroup& group(GroupId id) const;
  const std::vector<UserGroup>& groups() const { return groups_; }

  /// Total member-bitset memory (index sizing for experiment E7's report).
  size_t MemoryBytes() const;

 private:
  size_t num_users_;
  std::vector<UserGroup> groups_;
  std::unordered_map<uint64_t, std::vector<GroupId>> hash_index_;
};

}  // namespace vexus::mining
