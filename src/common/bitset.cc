#include "common/bitset.h"

#include "common/bitset_kernels.h"
#include "common/logging.h"

namespace vexus {

namespace {
constexpr size_t kWordBits = 64;
size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

namespace kernels = ::vexus::bitset_kernels;

Bitset::Bitset(size_t size) : size_(size), words_(WordsFor(size), 0) {}

void Bitset::Resize(size_t size) {
  size_ = size;
  words_.resize(WordsFor(size), 0);
  MaskTail();
}

void Bitset::Set(size_t i) {
  VEXUS_DCHECK(i < size_) << "bit " << i << " out of range " << size_;
  words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
}

bool Bitset::Test(size_t i) const {
  VEXUS_DCHECK(i < size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void Bitset::SetAll() {
  for (auto& w : words_) w = ~uint64_t{0};
  MaskTail();
}

void Bitset::ClearAll() {
  for (auto& w : words_) w = 0;
}

size_t Bitset::Count() const {
  return kernels::Count(words_.data(), words_.size());
}

bool Bitset::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool Bitset::IsSubsetOf(const Bitset& other) const {
  CheckCompatible(other);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

size_t Bitset::IntersectCount(const Bitset& other) const {
  CheckCompatible(other);
  return kernels::AndCount(words_.data(), other.words_.data(), words_.size());
}

size_t Bitset::CountAndNot(const Bitset& exclude) const {
  CheckCompatible(exclude);
  return kernels::AndNotCount(words_.data(), exclude.words_.data(),
                              words_.size());
}

size_t Bitset::IntersectCountAndNot(const Bitset& other,
                                    const Bitset& exclude) const {
  CheckCompatible(other);
  CheckCompatible(exclude);
  return kernels::AndAndNotCount(words_.data(), other.words_.data(),
                                 exclude.words_.data(), words_.size());
}

void Bitset::AssignUnion(const Bitset& a, const Bitset& b) {
  a.CheckCompatible(b);
  size_ = a.size_;
  words_.resize(a.words_.size());
  kernels::Or(a.words_.data(), b.words_.data(), words_.data(), words_.size());
}

size_t Bitset::AssignUnionCount(const Bitset& a, const Bitset& b) {
  a.CheckCompatible(b);
  size_ = a.size_;
  words_.resize(a.words_.size());
  return kernels::OrCountInto(a.words_.data(), b.words_.data(), words_.data(),
                              words_.size());
}

size_t Bitset::AssignUnionMaskedCount(const Bitset& a, const Bitset& b,
                                      const Bitset& mask) {
  a.CheckCompatible(b);
  a.CheckCompatible(mask);
  size_ = a.size_;
  words_.resize(a.words_.size());
  return kernels::OrAndCountInto(a.words_.data(), b.words_.data(),
                                 mask.words_.data(), words_.data(),
                                 words_.size());
}

double Bitset::Jaccard(const Bitset& other) const {
  CheckCompatible(other);
  size_t inter = 0, uni = 0;
  kernels::AndOrCount(words_.data(), other.words_.data(), words_.size(),
                      &inter, &uni);
  if (uni == 0) return 1.0;  // two empty sets are identical
  return static_cast<double>(inter) / static_cast<double>(uni);
}

Bitset& Bitset::operator&=(const Bitset& other) {
  CheckCompatible(other);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  CheckCompatible(other);
  kernels::Or(words_.data(), other.words_.data(), words_.data(),
              words_.size());
  return *this;
}

Bitset& Bitset::Subtract(const Bitset& other) {
  CheckCompatible(other);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool Bitset::operator==(const Bitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

bool Bitset::AdoptWords(size_t size, std::vector<uint64_t> words) {
  if (words.size() != WordsFor(size)) return false;
  size_t tail = size % kWordBits;
  if (tail != 0 && !words.empty() &&
      (words.back() & ~((uint64_t{1} << tail) - 1)) != 0) {
    return false;  // a bit beyond the universe is set — corrupt input
  }
  size_ = size;
  words_ = std::move(words);
  return true;
}

std::vector<uint32_t> Bitset::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEach([&out](uint32_t i) { out.push_back(i); });
  return out;
}

Bitset Bitset::FromVector(size_t size, const std::vector<uint32_t>& elems) {
  Bitset b(size);
  for (uint32_t e : elems) b.Set(e);
  return b;
}

uint64_t Bitset::Hash() const {
  // FNV-1a over words plus the size, so sets over different universes differ.
  uint64_t h = 1469598103934665603ULL ^ size_;
  for (uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return h;
}

void Bitset::CheckCompatible(const Bitset& other) const {
  // Hard CHECK, not DCHECK: the kernel entry points read raw word arrays,
  // and a universe mismatch in Release used to sail past the compiled-out
  // DCHECK straight into an out-of-bounds read. Fail loudly in every build.
  VEXUS_CHECK(size_ == other.size_)
      << "bitset universe mismatch: " << size_ << " vs " << other.size_;
}

void Bitset::MaskTail() {
  size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

}  // namespace vexus
