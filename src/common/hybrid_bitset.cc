#include "common/hybrid_bitset.h"

#include <algorithm>

namespace vexus {

namespace {
constexpr size_t kWordBits = 64;
size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

HybridBitset HybridBitset::FromBitset(const Bitset& b) {
  HybridBitset h(b.size());
  size_t count = b.Count();
  if (count <= SparseThresholdFor(b.size())) {
    h.ids_.reserve(count);
    b.ForEach([&h](uint32_t id) { h.ids_.push_back(id); });
  } else {
    h.sparse_ = false;
    h.dense_ = b;
  }
  return h;
}

HybridBitset HybridBitset::FromBitset(Bitset&& b) {
  HybridBitset h(b.size());
  size_t count = b.Count();
  if (count <= SparseThresholdFor(b.size())) {
    h.ids_.reserve(count);
    b.ForEach([&h](uint32_t id) { h.ids_.push_back(id); });
  } else {
    h.sparse_ = false;
    h.dense_ = std::move(b);
  }
  return h;
}

HybridBitset HybridBitset::FromSortedIds(size_t universe,
                                         std::vector<uint32_t> ids) {
  HybridBitset h(universe);
  for (size_t i = 0; i < ids.size(); ++i) {
    VEXUS_DCHECK(ids[i] < universe) << "id " << ids[i] << " out of universe";
    VEXUS_DCHECK(i == 0 || ids[i - 1] < ids[i]) << "ids not strictly ascending";
  }
  h.ids_ = std::move(ids);
  if (h.ids_.size() > SparseThresholdFor(universe)) h.PromoteToDense();
  return h;
}

bool HybridBitset::Test(size_t i) const {
  VEXUS_DCHECK(i < universe_);
  if (sparse_) {
    return std::binary_search(ids_.begin(), ids_.end(),
                              static_cast<uint32_t>(i));
  }
  return dense_.Test(i);
}

void HybridBitset::Set(size_t i) {
  VEXUS_DCHECK(i < universe_) << "bit " << i << " out of range " << universe_;
  if (!sparse_) {
    dense_.Set(i);
    return;
  }
  auto it = std::lower_bound(ids_.begin(), ids_.end(),
                             static_cast<uint32_t>(i));
  if (it != ids_.end() && *it == static_cast<uint32_t>(i)) return;
  ids_.insert(it, static_cast<uint32_t>(i));
  if (ids_.size() > SparseThresholdFor(universe_)) PromoteToDense();
}

size_t HybridBitset::FindFirst() const {
  if (sparse_) return ids_.empty() ? universe_ : ids_.front();
  return dense_.FindFirst();
}

uint64_t HybridBitset::Hash() const {
  if (!sparse_) return dense_.Hash();
  // Synthesize the exact word stream Bitset::Hash would absorb — including
  // the zero words between runs — so the hash is form-independent.
  uint64_t h = 1469598103934665603ULL ^ universe_;
  size_t num_words = WordsFor(universe_);
  size_t idx = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = 0;
    while (idx < ids_.size() && ids_[idx] / kWordBits == w) {
      word |= uint64_t{1} << (ids_[idx] % kWordBits);
      ++idx;
    }
    h ^= word;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<uint32_t> HybridBitset::ToVector() const {
  if (sparse_) return ids_;
  return dense_.ToVector();
}

Bitset HybridBitset::ToBitset() const {
  if (!sparse_) return dense_;
  Bitset b(universe_);
  for (uint32_t id : ids_) b.Set(id);
  return b;
}

void HybridBitset::Normalize() {
  if (sparse_) {
    if (ids_.size() > SparseThresholdFor(universe_)) PromoteToDense();
    return;
  }
  size_t count = dense_.Count();
  if (count <= SparseThresholdFor(universe_)) {
    ids_.clear();
    ids_.reserve(count);
    dense_.ForEach([this](uint32_t id) { ids_.push_back(id); });
    dense_ = Bitset();
    sparse_ = true;
  }
}

void HybridBitset::PromoteToDense() {
  dense_ = Bitset(universe_);
  for (uint32_t id : ids_) dense_.Set(id);
  ids_.clear();
  ids_.shrink_to_fit();
  sparse_ = false;
}

// --- vs dense Bitset ---

size_t HybridBitset::IntersectCount(const Bitset& other) const {
  CheckUniverse(other.size());
  if (!sparse_) return dense_.IntersectCount(other);
  size_t c = 0;
  for (uint32_t id : ids_) c += other.Test(id) ? 1 : 0;
  return c;
}

size_t HybridBitset::CountAndNot(const Bitset& exclude) const {
  CheckUniverse(exclude.size());
  if (!sparse_) return dense_.CountAndNot(exclude);
  size_t c = 0;
  for (uint32_t id : ids_) c += exclude.Test(id) ? 0 : 1;
  return c;
}

size_t HybridBitset::IntersectCountAndNot(const Bitset& other,
                                          const Bitset& exclude) const {
  CheckUniverse(other.size());
  CheckUniverse(exclude.size());
  if (!sparse_) return dense_.IntersectCountAndNot(other, exclude);
  size_t c = 0;
  for (uint32_t id : ids_) {
    c += (other.Test(id) && !exclude.Test(id)) ? 1 : 0;
  }
  return c;
}

bool HybridBitset::IsSubsetOf(const Bitset& other) const {
  CheckUniverse(other.size());
  if (!sparse_) return dense_.IsSubsetOf(other);
  for (uint32_t id : ids_) {
    if (!other.Test(id)) return false;
  }
  return true;
}

double HybridBitset::Jaccard(const Bitset& other) const {
  CheckUniverse(other.size());
  if (!sparse_) return dense_.Jaccard(other);
  size_t inter = IntersectCount(other);
  size_t uni = other.Count() + ids_.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

void HybridBitset::OrInto(Bitset* out) const {
  CheckUniverse(out->size());
  if (!sparse_) {
    *out |= dense_;
    return;
  }
  for (uint32_t id : ids_) out->Set(id);
}

void HybridBitset::UnionInto(const Bitset& base, Bitset* out) const {
  CheckUniverse(base.size());
  if (!sparse_) {
    out->AssignUnion(base, dense_);
    return;
  }
  *out = base;
  for (uint32_t id : ids_) out->Set(id);
}

size_t HybridBitset::SparseLowerBound(uint64_t id_bound) const {
  auto it = std::lower_bound(
      ids_.begin(), ids_.end(), id_bound,
      [](uint32_t id, uint64_t bound) { return id < bound; });
  return static_cast<size_t>(it - ids_.begin());
}

HybridBitset HybridBitset::AndWith(const Bitset& mask) const {
  CheckUniverse(mask.size());
  if (sparse_) {
    std::vector<uint32_t> kept;
    for (uint32_t id : ids_) {
      if (mask.Test(id)) kept.push_back(id);
    }
    return FromSortedIds(universe_, std::move(kept));
  }
  Bitset out;
  dense_.IntersectCountInto(mask, &out);
  return FromBitset(std::move(out));
}

// --- vs HybridBitset ---

size_t HybridBitset::IntersectCount(const HybridBitset& other) const {
  CheckUniverse(other.universe_);
  if (!sparse_ && !other.sparse_) {
    return dense_.IntersectCount(other.dense_);
  }
  if (sparse_ && other.sparse_) {
    size_t c = 0, i = 0, j = 0;
    while (i < ids_.size() && j < other.ids_.size()) {
      if (ids_[i] < other.ids_[j]) {
        ++i;
      } else if (ids_[i] > other.ids_[j]) {
        ++j;
      } else {
        ++c;
        ++i;
        ++j;
      }
    }
    return c;
  }
  const std::vector<uint32_t>& sp = sparse_ ? ids_ : other.ids_;
  const Bitset& dn = sparse_ ? other.dense_ : dense_;
  size_t c = 0;
  for (uint32_t id : sp) c += dn.Test(id) ? 1 : 0;
  return c;
}

bool HybridBitset::IsSubsetOf(const HybridBitset& other) const {
  CheckUniverse(other.universe_);
  if (!sparse_ && !other.sparse_) return dense_.IsSubsetOf(other.dense_);
  if (sparse_) {
    if (other.sparse_) {
      if (ids_.size() > other.ids_.size()) return false;
      size_t j = 0;
      for (uint32_t id : ids_) {
        while (j < other.ids_.size() && other.ids_[j] < id) ++j;
        if (j >= other.ids_.size() || other.ids_[j] != id) return false;
        ++j;
      }
      return true;
    }
    for (uint32_t id : ids_) {
      if (!other.dense_.Test(id)) return false;
    }
    return true;
  }
  // Dense ⊆ sparse: by the canonical-form invariant this means a big set
  // inside a small one — cheap count check first, then membership walk.
  if (dense_.Count() > other.ids_.size()) return false;
  bool ok = true;
  dense_.ForEach([&](uint32_t id) {
    if (ok && !std::binary_search(other.ids_.begin(), other.ids_.end(), id)) {
      ok = false;
    }
  });
  return ok;
}

double HybridBitset::Jaccard(const HybridBitset& other) const {
  CheckUniverse(other.universe_);
  if (!sparse_ && !other.sparse_) return dense_.Jaccard(other.dense_);
  size_t inter = IntersectCount(other);
  size_t uni = Count() + other.Count() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

bool HybridBitset::operator==(const HybridBitset& other) const {
  if (universe_ != other.universe_) return false;
  if (sparse_ && other.sparse_) return ids_ == other.ids_;
  if (!sparse_ && !other.sparse_) return dense_ == other.dense_;
  // Mixed forms of equal content cannot happen under the canonical-form
  // invariant, but compare by content anyway so the class has no hidden
  // normalization precondition.
  const HybridBitset& sp = sparse_ ? *this : other;
  const HybridBitset& dn = sparse_ ? other : *this;
  if (sp.ids_.size() != dn.dense_.Count()) return false;
  for (uint32_t id : sp.ids_) {
    if (!dn.dense_.Test(id)) return false;
  }
  return true;
}

// --- Cursor ---

HybridBitset::Cursor::Cursor(const HybridBitset& h) {
  if (h.sparse_) {
    ids_ = &h.ids_;
    at_end_ = ids_->empty();
    if (!at_end_) value_ = (*ids_)[0];
  } else {
    words_ = h.dense_.words().data();
    num_words_ = h.dense_.words().size();
    at_end_ = false;
    ScanDense();
  }
}

void HybridBitset::Cursor::ScanDense() {
  while (cur_word_ == 0) {
    if (word_idx_ >= num_words_) {
      at_end_ = true;
      return;
    }
    cur_word_ = words_[word_idx_++];
  }
  // word_idx_ has already advanced past the word being consumed.
  value_ = static_cast<uint32_t>((word_idx_ - 1) * kWordBits +
                                 __builtin_ctzll(cur_word_));
  cur_word_ &= cur_word_ - 1;
}

void HybridBitset::Cursor::Next() {
  if (at_end_) return;
  if (ids_ != nullptr) {
    ++idx_;
    if (idx_ >= ids_->size()) {
      at_end_ = true;
    } else {
      value_ = (*ids_)[idx_];
    }
    return;
  }
  ScanDense();
}

// --- free operators ---

Bitset operator&(const HybridBitset& lhs, const Bitset& rhs) {
  if (!lhs.is_sparse()) return lhs.dense_form() & rhs;
  Bitset out(rhs.size());
  for (uint32_t id : lhs.sparse_ids()) {
    if (rhs.Test(id)) out.Set(id);
  }
  return out;
}

bool operator==(const HybridBitset& lhs, const Bitset& rhs) {
  if (lhs.size() != rhs.size()) return false;
  if (!lhs.is_sparse()) return lhs.dense_form() == rhs;
  if (lhs.Count() != rhs.Count()) return false;
  for (uint32_t id : lhs.sparse_ids()) {
    if (!rhs.Test(id)) return false;
  }
  return true;
}

}  // namespace vexus
