// ShardMap — the fleet partition of the user universe (DESIGN.md §15).
//
// Each shard owns a contiguous user-id range whose boundaries are multiples
// of 64, i.e. whole 64-bit words of every Bitset over the universe. That
// alignment is the load-bearing property: a popcount (or fused
// AND/OR/ANDNOT popcount) over the whole universe equals the sum of the
// same kernel applied to each shard's word subrange, *exactly* — integer
// partials, not float partials — so shard backends that each score their
// own range, folded in shard order by a gather coordinator, reproduce the
// single-process integers bit for bit. Every float the greedy objective
// derives from those integers is then byte-identical to the single-process
// run (the same argument that makes kernel tiers interchangeable).
//
// The map is a pure function of (num_users, num_shards): words are dealt
// out as evenly as possible (first `words % S` shards get one extra), and
// the shard count is clamped so no shard is empty. Two processes given the
// same pair compute the same boundaries — snapshot group sections,
// LoadSnapshotShard slices, and the GatherCoordinator's user ranges all
// rely on that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vexus {

class ShardMap {
 public:
  struct Range {
    /// Owned users: [user_begin, user_end).
    uint32_t user_begin = 0;
    uint32_t user_end = 0;
    /// Owned Bitset words: [word_begin, word_end). user_begin == 64 *
    /// word_begin always; user_end == 64 * word_end except for the last
    /// shard, which owns the universe tail.
    size_t word_begin = 0;
    size_t word_end = 0;

    size_t num_words() const { return word_end - word_begin; }
    size_t num_users() const { return user_end - user_begin; }
    bool operator==(const Range&) const = default;
  };

  /// Single implicit shard over an empty universe.
  ShardMap() : ShardMap(0, 1) {}

  /// Partitions `num_users` across `num_shards` word-aligned contiguous
  /// ranges. `num_shards` is clamped to [1, max(1, ceil(num_users / 64))]
  /// so every shard owns at least one word (a universe smaller than 64·S
  /// simply gets fewer shards).
  ShardMap(size_t num_users, size_t num_shards);

  size_t num_users() const { return num_users_; }
  size_t num_shards() const { return ranges_.size(); }

  const Range& shard(size_t s) const { return ranges_[s]; }
  const std::vector<Range>& ranges() const { return ranges_; }

  /// The shard owning `user` (which must be < num_users()).
  size_t ShardOf(uint32_t user) const;

  bool operator==(const ShardMap&) const = default;

 private:
  size_t num_users_ = 0;
  std::vector<Range> ranges_;
};

}  // namespace vexus
