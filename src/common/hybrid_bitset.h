// Density-switched member-set container: the in-RAM twin of the snapshot's
// per-group encoding choice. Small groups (the overwhelming majority of
// mined groups — a few hundred members out of 278,858 users) are stored as
// a strictly-ascending sorted id array, so per-candidate work is O(|group|)
// instead of O(U/64); groups above ~1/8 density switch to the dense Bitset
// and run the SIMD kernels (common/bitset_kernels). The form is canonical
// by content — every constructor and mutation normalizes against
// SparseThresholdFor(universe), and Set() transparently promotes a sparse
// set that crosses the threshold — so equality, hashing, and GroupStore
// dedup never see two forms of the same set.
//
// Every query returns exact integers (or floats derived from exact
// integers in a fixed order), so whether a group happens to be sparse or
// dense can never change greedy output — the same byte-identical gate the
// kernel tiers satisfy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"

namespace vexus {

class HybridBitset {
 public:
  /// Member count at or below which a set over `universe` users stays in
  /// sparse (sorted id array) form. Mirrors the snapshot's encoding switch:
  /// one uvarint byte per member vs universe/8 raw bitset bytes means the
  /// sparse encoding wins below ~1/8 density.
  static constexpr size_t SparseThresholdFor(size_t universe) {
    return universe / 8;
  }

  /// Empty set over a zero-sized universe.
  HybridBitset() = default;

  /// Empty set over `universe` users (sparse form).
  explicit HybridBitset(size_t universe) : universe_(universe) {}

  /// Builds from a dense bitset, choosing the form by density.
  static HybridBitset FromBitset(const Bitset& b);
  static HybridBitset FromBitset(Bitset&& b);

  /// Builds from strictly-ascending ids < universe (the snapshot sparse
  /// decode path hands its uvarint-delta ids straight here — no word
  /// materialization for small groups). Promotes to dense above threshold.
  static HybridBitset FromSortedIds(size_t universe,
                                    std::vector<uint32_t> ids);

  /// Universe size (number of addressable users).
  size_t size() const { return universe_; }
  bool empty() const { return universe_ == 0; }

  /// True when stored as the sorted id array.
  bool is_sparse() const { return sparse_; }

  /// Number of members. O(1) sparse, O(words) dense.
  size_t Count() const {
    return sparse_ ? ids_.size() : dense_.Count();
  }

  bool None() const { return sparse_ ? ids_.empty() : dense_.None(); }

  bool Test(size_t i) const;

  /// Adds member `i`, transparently promoting to dense when the sparse
  /// form crosses the density threshold.
  void Set(size_t i);

  /// Index of the first member, or size() if none.
  size_t FindFirst() const;

  /// Content hash, equal to Bitset::Hash() of the same set regardless of
  /// form (the sparse path synthesizes the word stream on the fly).
  uint64_t Hash() const;

  /// Heap bytes of the active representation.
  size_t MemoryBytes() const {
    return sparse_ ? ids_.capacity() * sizeof(uint32_t)
                   : dense_.MemoryBytes();
  }

  /// Member ids in increasing order.
  std::vector<uint32_t> ToVector() const;

  /// Materializes the dense form (copying when already dense).
  Bitset ToBitset() const;

  /// The dense backing set; CHECK-fails when sparse. Snapshot encode uses
  /// this for raw-encoded groups (raw only wins above the density
  /// threshold, where the form is dense by invariant).
  const Bitset& dense_form() const {
    VEXUS_CHECK(!sparse_) << "dense_form() on a sparse HybridBitset";
    return dense_;
  }

  /// The sorted id array; CHECK-fails when dense.
  const std::vector<uint32_t>& sparse_ids() const {
    VEXUS_CHECK(sparse_) << "sparse_ids() on a dense HybridBitset";
    return ids_;
  }

  /// Re-canonicalizes the form by content (promote/demote across the
  /// threshold). Constructors and Set() already maintain this.
  void Normalize();

  /// Calls fn(id) for every member in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (sparse_) {
      for (uint32_t id : ids_) fn(id);
    } else {
      dense_.ForEach(fn);
    }
  }

  // --- queries against a dense Bitset (same universe) ---

  /// |this ∩ other|. O(|this|) sparse, SIMD kernel dense.
  size_t IntersectCount(const Bitset& other) const;

  /// |this ∩ ¬exclude| — the greedy coverage-gain kernel.
  size_t CountAndNot(const Bitset& exclude) const;

  /// |this ∩ other ∩ ¬exclude| in one pass.
  size_t IntersectCountAndNot(const Bitset& other, const Bitset& exclude) const;

  bool IsSubsetOf(const Bitset& other) const;

  double Jaccard(const Bitset& other) const;

  /// *out |= this.
  void OrInto(Bitset* out) const;

  /// *out = base | this (out must alias neither operand's storage when
  /// sparse; dense delegates to AssignUnion which allows out == base).
  void UnionInto(const Bitset& base, Bitset* out) const;

  /// this ∩ mask as a new hybrid set (normalized by the result's density).
  HybridBitset AndWith(const Bitset& mask) const;

  /// Calls fn(id) for every member with id in [64·word_begin,
  /// 64·word_end), ascending — the snapshot encoder walks each group
  /// section's members this way (common/shard_map.h).
  template <typename Fn>
  void ForEachInRange(size_t word_begin, size_t word_end, Fn&& fn) const {
    if (sparse_) {
      for (size_t i = SparseLowerBound(word_begin * 64),
                  e = SparseLowerBound(word_end * 64);
           i < e; ++i) {
        fn(ids_[i]);
      }
    } else {
      const std::vector<uint64_t>& words = dense_.words();
      const size_t end = word_end < words.size() ? word_end : words.size();
      for (size_t w = word_begin; w < end; ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
          fn(static_cast<uint32_t>(w * 64 + bit));
          word &= word - 1;
        }
      }
    }
  }

  // --- queries against another HybridBitset (same universe) ---

  size_t IntersectCount(const HybridBitset& other) const;
  bool IsSubsetOf(const HybridBitset& other) const;
  double Jaccard(const HybridBitset& other) const;

  bool operator==(const HybridBitset& other) const;

  /// Ascending-id iteration regardless of form — the merged-walk primitive
  /// for order-sensitive float accumulation (index/similarity's
  /// WeightedJaccard must sum weights in exactly the order the dense word
  /// scan did, or the byte-identity gate breaks).
  class Cursor {
   public:
    explicit Cursor(const HybridBitset& h);
    bool AtEnd() const { return at_end_; }
    uint32_t Value() const { return value_; }
    void Next();

   private:
    void ScanDense();

    const std::vector<uint32_t>* ids_ = nullptr;  // sparse walk
    size_t idx_ = 0;
    const uint64_t* words_ = nullptr;  // dense walk
    size_t num_words_ = 0;
    size_t word_idx_ = 0;
    uint64_t cur_word_ = 0;
    uint32_t value_ = 0;
    bool at_end_ = true;
  };

 private:
  void CheckUniverse(size_t other_universe) const {
    // Hard CHECK for the same reason as Bitset::CheckCompatible — sparse
    // ids index into the other operand's words.
    VEXUS_CHECK(universe_ == other_universe)
        << "bitset universe mismatch: " << universe_ << " vs "
        << other_universe;
  }
  void PromoteToDense();
  /// Index of the first sparse id ≥ `id_bound` (ids_ is strictly
  /// ascending). `id_bound` is a 64-bit value so a word range covering the
  /// top of a 2^32 universe cannot wrap.
  size_t SparseLowerBound(uint64_t id_bound) const;

  size_t universe_ = 0;
  bool sparse_ = true;
  std::vector<uint32_t> ids_;  // strictly ascending; valid when sparse_
  Bitset dense_;               // valid when !sparse_
};

// --- free interop with Bitset accumulators (minimizes call-site churn:
// `covered |= grp.members()` and friends keep compiling) ---

inline Bitset& operator|=(Bitset& lhs, const HybridBitset& rhs) {
  rhs.OrInto(&lhs);
  return lhs;
}

inline Bitset operator|(const Bitset& lhs, const HybridBitset& rhs) {
  Bitset out = lhs;
  rhs.OrInto(&out);
  return out;
}

inline Bitset operator|(const HybridBitset& lhs, const Bitset& rhs) {
  return rhs | lhs;
}

/// Intersection with a dense set yields a dense set (callers use it as a
/// working accumulator, e.g. SimulatedExplorer's remaining-target mask).
Bitset operator&(const HybridBitset& lhs, const Bitset& rhs);
inline Bitset operator&(const Bitset& lhs, const HybridBitset& rhs) {
  return rhs & lhs;
}

bool operator==(const HybridBitset& lhs, const Bitset& rhs);
inline bool operator==(const Bitset& lhs, const HybridBitset& rhs) {
  return rhs == lhs;
}

}  // namespace vexus
