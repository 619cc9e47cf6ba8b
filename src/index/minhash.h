// MinHash signatures + banded LSH for approximate Jaccard.
//
// Exact all-pairs similarity is quadratic in the number of groups; at paper
// scale (§I: 10^6 potential groups) the inverted-index build needs a
// sub-quadratic candidate generator. MinHash gives an unbiased Jaccard
// estimate from k independent permutations; banding the signature into
// b bands of r rows (k = b·r) yields candidate pairs whose probability of
// colliding is the classic S-curve 1 − (1 − s^r)^b. Ablation D5 compares
// this against the exact builder.
//
// Empty sets are a degenerate corner: they have no members to take a min
// over, so their signature is all-kEmptySentinel. Such signatures estimate
// Jaccard 0 against everything (including each other — the true Jaccard of
// two empty sets is 0/undefined for similarity purposes, NOT 1) and never
// enter an LSH bucket, so empty groups cannot flood a band with bogus
// candidate pairs.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/thread_pool.h"
#include "mining/group.h"

namespace vexus::index {

class MinHasher {
 public:
  /// Signature component of an empty set (no member to take the min over).
  static constexpr uint64_t kEmptySentinel =
      std::numeric_limits<uint64_t>::max();

  /// k hash functions derived deterministically from `seed`.
  MinHasher(size_t num_hashes, uint64_t seed = 0x9e3779b97f4a7c15ULL);

  size_t num_hashes() const { return salts_.size(); }

  /// Signature of a user set: per hash function, the min over members of
  /// h_i(u). Empty sets yield all-kEmptySentinel signatures.
  std::vector<uint64_t> Signature(const Bitset& members) const;

  /// Signatures of every group in the store, sharded across `pool` when
  /// non-null (groups are independent, so the parallel result is
  /// byte-identical to the serial one).
  std::vector<std::vector<uint64_t>> Signatures(const mining::GroupStore& store,
                                                ThreadPool* pool = nullptr) const;

  /// True iff `sig` is the all-sentinel signature of an empty set.
  static bool IsEmptySignature(const std::vector<uint64_t>& sig);

  /// Fraction of agreeing components — an unbiased Jaccard estimate.
  /// Sentinel components (empty sets) never count as agreement, so two empty
  /// groups estimate 0, matching |∅ ∩ ∅| = 0 shared members.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

 private:
  std::vector<uint64_t> salts_;
};

/// Banded LSH over signatures: groups whose signature agrees on all rows of
/// at least one band become candidate pairs. `bands` must divide the
/// signature length, and every signature must have the same length (checked;
/// ragged input previously read out of bounds). Empty-set signatures are
/// skipped — an empty group shares no member with anything, so it belongs in
/// no bucket. Pairs are returned deduplicated, each (i < j), in ascending
/// encoded order. `pool`, when non-null, shards the banding; the result is
/// byte-identical to the serial one (the final sort canonicalizes order).
std::vector<std::pair<uint32_t, uint32_t>> LshCandidatePairs(
    const std::vector<std::vector<uint64_t>>& signatures, size_t bands,
    ThreadPool* pool = nullptr);

}  // namespace vexus::index
