// Dynamic bitset tuned for user-set algebra.
//
// Group members are represented as bitsets over the user universe; the hot
// operations of the whole system — Jaccard similarity (index construction,
// experiment E3) and coverage accumulation (greedy selection, experiment E1)
// — reduce to word-parallel AND/OR + popcount, which this class provides
// without materializing temporaries (IntersectCount / Jaccard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vexus {

class Bitset {
 public:
  /// Empty set over a zero-sized universe.
  Bitset() = default;

  /// Set over a universe of `size` elements, all initially absent.
  explicit Bitset(size_t size);

  /// Universe size (number of addressable bits).
  size_t size() const { return size_; }

  /// True if the universe is empty.
  bool empty() const { return size_ == 0; }

  /// Grows (or shrinks) the universe; new bits are clear.
  void Resize(size_t size);

  void Set(size_t i);
  bool Test(size_t i) const;

  /// Sets all bits / clears all bits.
  void SetAll();
  void ClearAll();

  /// Number of set bits. O(words), word-parallel.
  size_t Count() const;

  /// True iff no bit is set.
  bool None() const;

  /// True iff every element of this set is also in `other` (sizes must match).
  bool IsSubsetOf(const Bitset& other) const;

  /// |this ∩ other| without allocating. Sizes must match.
  size_t IntersectCount(const Bitset& other) const;

  /// |this ∩ ¬exclude| without allocating. Sizes must match.
  size_t CountAndNot(const Bitset& exclude) const;

  /// |this ∩ other ∩ ¬exclude| in one word-parallel pass, no temporaries.
  /// The greedy swap loop's delta evaluator uses this as its inner kernel:
  /// "how many anchor users would candidate g newly cover?" is
  /// g.IntersectCountAndNot(anchor, rest) — one pass instead of three.
  size_t IntersectCountAndNot(const Bitset& other, const Bitset& exclude) const;

  /// this = a ∪ b in one pass (resized to a's universe; a and b must
  /// match). Avoids the copy+|= double pass when building prefix/suffix
  /// union tables.
  void AssignUnion(const Bitset& a, const Bitset& b);

  /// this = a ∪ b and returns |a ∪ b| — union and popcount fused into a
  /// single pass. The greedy rest(pos) table build uses this: the union's
  /// count is needed anyway for the coverage objective.
  size_t AssignUnionCount(const Bitset& a, const Bitset& b);

  /// this = (a ∪ b) ∩ mask and returns its cardinality in one pass — the
  /// anchored-greedy rest(pos) build (union of prefix/suffix coverage
  /// restricted to the anchor's members) in one sweep instead of three.
  size_t AssignUnionMaskedCount(const Bitset& a, const Bitset& b,
                                const Bitset& mask);

  /// Jaccard similarity |a∩b| / |a∪b|; 1.0 when both sets are empty.
  double Jaccard(const Bitset& other) const;

  /// In-place set algebra. Sizes must match.
  Bitset& operator&=(const Bitset& other);
  Bitset& operator|=(const Bitset& other);
  /// Set difference: removes every element of `other` from this.
  Bitset& Subtract(const Bitset& other);

  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }

  bool operator==(const Bitset& other) const;

  /// Read-only view of the backing 64-bit words (bit i of the set lives at
  /// words()[i / 64] >> (i % 64)). Tail bits beyond size() are zero by class
  /// invariant — snapshot serialization (core/snapshot.cc) writes these
  /// words verbatim as the dense "raw bitset" group encoding.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Adopts `words` as the backing store of a `size`-bit universe — the
  /// deserialization inverse of words(). Returns false (leaving the set
  /// unchanged) when the word count does not match WordsFor(size) or a tail
  /// bit beyond `size` is set; snapshot load turns that into
  /// Status::Corruption rather than silently masking flipped bits.
  bool AdoptWords(size_t size, std::vector<uint64_t> words);

  /// Indices of set bits in increasing order.
  std::vector<uint32_t> ToVector() const;

  /// A copy. Exists only because the frozen vexus_e2e benchmark calls
  /// `members().ToBitset()`; new code copies the Bitset directly.
  Bitset ToBitset() const { return *this; }

  /// Builds a set from element indices (duplicates allowed).
  static Bitset FromVector(size_t size, const std::vector<uint32_t>& elems);

  /// Calls fn(index) for every set bit in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        fn(static_cast<uint32_t>(w * 64 + bit));
        word &= word - 1;
      }
    }
  }

  /// 64-bit content hash (order-independent by construction).
  uint64_t Hash() const;

  /// Bytes of heap memory used by the word array.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  void CheckCompatible(const Bitset& other) const;
  /// Clears bits beyond size_ in the last word (maintained as an invariant).
  void MaskTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace vexus
