#include "index/similarity.h"

#include "common/logging.h"

namespace vexus::index {

double WeightedJaccard(const Bitset& a, const Bitset& b,
                       const std::vector<double>& weights) {
  VEXUS_DCHECK(a.size() == b.size());
  VEXUS_DCHECK(weights.size() >= a.size());
  const std::vector<uint64_t>& aw = a.words();
  const std::vector<uint64_t>& bw = b.words();
  double inter = 0, uni = 0;
  for (size_t w = 0; w < aw.size(); ++w) {
    uint64_t both = aw[w] & bw[w];
    uint64_t word = aw[w] | bw[w];
    while (word != 0) {
      unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      double weight = weights[w * 64 + bit];
      uni += weight;
      if ((both >> bit) & 1) inter += weight;
      word &= word - 1;
    }
  }
  if (uni <= 0) {
    // Zero-weight union: fall back on set semantics.
    return a.None() && b.None() ? 1.0 : 0.0;
  }
  return inter / uni;
}

}  // namespace vexus::index
