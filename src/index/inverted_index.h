// Per-group inverted similarity index — the paper's core scalability device
// (§II.A): "we build an inverted index per group g ∈ G that contains all
// groups in G − {g} in decreasing order of their similarity to g … we only
// materialize 10% of each inverted index which is shown to be adequate".
//
// Construction is exact: for each group, count member co-occurrences via
// user → group adjacency; Jaccard follows from |g∩h| and the two sizes.
// Cost O(Σ_u deg(u)²), independent of |G|² when overlap is sparse.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "mining/group.h"

namespace vexus::index {

/// One inverted-index posting: a neighbor group and its similarity.
struct Neighbor {
  mining::GroupId group = 0;
  float similarity = 0.0f;
};

class InvertedIndex {
 public:
  struct Options {
    /// Fraction of each group's full neighbor list to materialize
    /// (the paper's 10%). Clamped to [0, 1].
    double materialization_fraction = 0.10;
    /// Materialize at least this many neighbors regardless of the fraction
    /// (small |G| would otherwise truncate to nothing).
    size_t min_neighbors = 16;
    /// Worker threads for the build (0 = hardware concurrency).
    size_t num_threads = 1;
  };

  struct BuildStats {
    double elapsed_ms = 0;
    size_t postings = 0;          // total materialized neighbors
    size_t full_postings = 0;     // before truncation
    size_t memory_bytes = 0;
  };

  /// Builds the index over all groups in the store.
  static Result<InvertedIndex> Build(const mining::GroupStore& store,
                                     const Options& options);

  /// Reconstructs an index from materialized posting lists (snapshot
  /// loading; see core/snapshot.h). Lists are adopted as-is — callers are
  /// responsible for their ordering invariant (descending similarity).
  static InvertedIndex FromPostings(std::vector<std::vector<Neighbor>> lists);

  size_t num_groups() const { return postings_.size(); }

  /// Materialized neighbors of g, sorted by decreasing similarity.
  const std::vector<Neighbor>& Neighbors(mining::GroupId g) const;

  /// Top-k of the materialized list (k may exceed it; returns what exists).
  std::vector<Neighbor> TopK(mining::GroupId g, size_t k) const;

  const BuildStats& build_stats() const { return stats_; }

  /// Bytes used by the posting lists.
  size_t MemoryBytes() const;

 private:
  std::vector<std::vector<Neighbor>> postings_;
  BuildStats stats_;
};

}  // namespace vexus::index
