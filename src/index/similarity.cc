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
    return a.UnionCount(b) == 0 ? 1.0 : 0.0;
  }
  return inter / uni;
}

double OverlapCoefficient(const Bitset& a, const Bitset& b) {
  size_t ca = a.Count();
  size_t cb = b.Count();
  size_t m = std::min(ca, cb);
  if (m == 0) return ca == cb ? 1.0 : 0.0;
  return static_cast<double>(a.IntersectCount(b)) / static_cast<double>(m);
}

double Dice(const Bitset& a, const Bitset& b) {
  size_t ca = a.Count();
  size_t cb = b.Count();
  if (ca + cb == 0) return 1.0;
  return 2.0 * static_cast<double>(a.IntersectCount(b)) /
         static_cast<double>(ca + cb);
}

}  // namespace vexus::index
