// Group-to-group similarity measures.
//
// The paper uses Jaccard distance between member sets for index construction
// (§II.A) and a *weighted* similarity for feedback personalization (§II.B):
// users the explorer has rewarded weigh more in the overlap, so groups
// aligned with the feedback vector rank higher among the k recommendations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bitset.h"
#include "mining/group.h"

namespace vexus::index {

/// Weighted Jaccard: Σ_{u∈a∩b} w(u) / Σ_{u∈a∪b} w(u).
///
/// `weights` is indexed by UserId and must cover the universe; weights are
/// expected non-negative (a uniform vector reduces this to plain Jaccard).
/// Returns 1.0 when both sets are empty, 0.0 when the union has zero weight.
/// Weights are summed in ascending user order over the union's words,
/// without materializing the union.
double WeightedJaccard(const Bitset& a, const Bitset& b,
                       const std::vector<double>& weights);

/// Memoized pairwise Jaccard over a fixed candidate pool.
///
/// Indices are positions into `pool` (NOT GroupIds). k and |pool| are both
/// small, but the greedy swap loop revisits pairs constantly — memoization
/// keeps each pair at one bitset pass for the lifetime of a Run, across
/// passes and applied swaps.
///
/// Threading contract: Sim() memoizes lazily and is single-writer — call it
/// only from the thread that owns the cache (the greedy loop fills its
/// candidate×selected similarity rows through Sim() *between* scan passes).
/// The candidate scan never calls Sim(); it reads the dense row matrix.
class PairwiseSimCache {
 public:
  PairwiseSimCache(const mining::GroupStore* store,
                   const std::vector<mining::GroupId>* pool)
      : store_(store),
        pool_(pool),
        cache_(pool->size() * pool->size(), -1.0f) {}

  /// Jaccard(pool[a], pool[b]), memoized. Symmetric; Sim(a, a) == 1.
  float Sim(size_t a, size_t b) {
    if (a == b) return 1.0f;
    float& slot = cache_[a * pool_->size() + b];
    if (slot < 0) {
      slot = static_cast<float>(
          store_->group((*pool_)[a])
              .members()
              .Jaccard(store_->group((*pool_)[b]).members()));
      cache_[b * pool_->size() + a] = slot;
    }
    return slot;
  }

  /// Bytes held by the pair matrix (|pool|² floats).
  size_t MemoryBytes() const { return cache_.size() * sizeof(float); }

 private:
  const mining::GroupStore* store_;
  const std::vector<mining::GroupId>* pool_;
  std::vector<float> cache_;
};

}  // namespace vexus::index
