#include "mining/group.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace vexus::mining {

UserGroup::UserGroup(std::vector<Descriptor> description, Bitset members)
    : description_(std::move(description)), members_(std::move(members)) {
  std::sort(description_.begin(), description_.end());
  description_.erase(std::unique(description_.begin(), description_.end()),
                     description_.end());
  size_ = members_.Count();
}

std::string UserGroup::DescriptionString(const data::Schema& schema) const {
  if (description_.empty()) return "<cluster>";
  std::string out;
  for (size_t i = 0; i < description_.size(); ++i) {
    if (i > 0) out += " ∧ ";
    const data::Attribute& attr = schema.attribute(description_[i].attribute);
    out += attr.name();
    out += "=";
    out += attr.ValueName(description_[i].value);
  }
  return out;
}

uint64_t UserGroup::DescriptionHash() const {
  uint64_t h = 0x5851f42d4c957f2dULL;
  for (const Descriptor& d : description_) {
    h = HashCombine(h, (static_cast<uint64_t>(d.attribute) << 32) | d.value);
  }
  return h;
}

GroupId GroupStore::Add(UserGroup group) {
  uint64_t h = group.DescriptionHash();
  auto it = hash_index_.find(h);
  if (it != hash_index_.end()) {
    for (GroupId id : it->second) {
      // Dedup requires identical description AND extent: clustering miners
      // (BIRCH) can produce distinct clusters that share a label.
      if (groups_[id].description() == group.description() &&
          groups_[id].members() == group.members()) {
        return id;
      }
    }
  }
  return Append(std::move(group));
}

GroupId GroupStore::Append(UserGroup group) {
  GroupId id = static_cast<GroupId>(groups_.size());
  VEXUS_DCHECK(group.members().size() == num_users_)
      << "group universe mismatch";
  hash_index_[group.DescriptionHash()].push_back(id);
  groups_.push_back(std::move(group));
  return id;
}

const UserGroup& GroupStore::group(GroupId id) const {
  VEXUS_DCHECK(id < groups_.size());
  return groups_[id];
}

size_t GroupStore::MemoryBytes() const {
  size_t total = 0;
  for (const auto& g : groups_) total += g.members().MemoryBytes();
  return total;
}

}  // namespace vexus::mining
