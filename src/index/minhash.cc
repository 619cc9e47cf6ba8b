#include "index/minhash.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"

namespace vexus::index {

MinHasher::MinHasher(size_t num_hashes, uint64_t seed) {
  VEXUS_CHECK(num_hashes >= 1);
  salts_.reserve(num_hashes);
  uint64_t state = seed;
  for (size_t i = 0; i < num_hashes; ++i) {
    salts_.push_back(SplitMix64(&state));
  }
}

std::vector<uint64_t> MinHasher::Signature(const Bitset& members) const {
  std::vector<uint64_t> sig(salts_.size(), kEmptySentinel);
  members.ForEach([&](uint32_t u) {
    for (size_t i = 0; i < salts_.size(); ++i) {
      uint64_t h = Mix64(salts_[i] ^ (static_cast<uint64_t>(u) + 1));
      if (h < sig[i]) sig[i] = h;
    }
  });
  return sig;
}

std::vector<std::vector<uint64_t>> MinHasher::Signatures(
    const mining::GroupStore& store, ThreadPool* pool) const {
  const size_t n = store.size();
  std::vector<std::vector<uint64_t>> sigs(n);
  auto compute = [&](size_t g) {
    sigs[g] = Signature(store.group(static_cast<mining::GroupId>(g)).members());
  };
  if (pool == nullptr || n < 2) {
    for (size_t g = 0; g < n; ++g) compute(g);
  } else {
    // Each slot is written by exactly one chunk; output is position-indexed,
    // so the parallel result is byte-identical to the serial one.
    pool->ParallelForChunked(n, /*chunk_size=*/64,
                             [&](size_t, size_t begin, size_t end) {
                               for (size_t g = begin; g < end; ++g) compute(g);
                             });
  }
  return sigs;
}

bool MinHasher::IsEmptySignature(const std::vector<uint64_t>& sig) {
  for (uint64_t v : sig) {
    if (v != kEmptySentinel) return false;
  }
  return true;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  VEXUS_DCHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    // Two sentinels mean two empty sets, which share nothing — that is
    // *dis*agreement for similarity purposes (pre-fix this returned 1.0 and
    // LSH bucketed every empty group with every other empty group).
    agree += (a[i] == b[i] && a[i] != kEmptySentinel);
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

std::vector<std::pair<uint32_t, uint32_t>> LshCandidatePairs(
    const std::vector<std::vector<uint64_t>>& signatures, size_t bands,
    ThreadPool* pool) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  if (signatures.empty()) return out;
  size_t k = signatures[0].size();
  VEXUS_CHECK(bands >= 1 && k % bands == 0)
      << "bands (" << bands << ") must divide signature length (" << k << ")";
  // Pre-fix only signatures[0] was measured; a shorter signature later in
  // the vector made the banding loop read out of bounds.
  for (size_t g = 0; g < signatures.size(); ++g) {
    VEXUS_CHECK(signatures[g].size() == k)
        << "ragged signature: group " << g << " has " << signatures[g].size()
        << " components, expected " << k;
  }
  size_t rows = k / bands;

  // Empty sets share no member with anything; keeping their all-sentinel
  // signatures out of the buckets stops every empty group colliding with
  // every other empty group in every band.
  std::vector<char> skip(signatures.size(), 0);
  for (size_t g = 0; g < signatures.size(); ++g) {
    skip[g] = MinHasher::IsEmptySignature(signatures[g]) ? 1 : 0;
  }

  // Bands are independent; band_pairs is band-indexed so the parallel fold
  // (band order, then sort+unique) is byte-identical to the serial path.
  std::vector<std::vector<uint64_t>> band_pairs(bands);
  auto scan_band = [&](size_t band) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    for (uint32_t g = 0; g < signatures.size(); ++g) {
      if (skip[g]) continue;
      uint64_t h = 0x100001b3ULL + band;
      for (size_t r = 0; r < rows; ++r) {
        h = HashCombine(h, signatures[g][band * rows + r]);
      }
      buckets[h].push_back(g);
    }
    std::vector<uint64_t>& pairs = band_pairs[band];
    for (const auto& [hash, members] : buckets) {
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          pairs.push_back((static_cast<uint64_t>(members[i]) << 32) |
                          members[j]);
        }
      }
    }
  };
  if (pool == nullptr || bands < 2) {
    for (size_t band = 0; band < bands; ++band) scan_band(band);
  } else {
    pool->ParallelForChunked(bands, /*chunk_size=*/1,
                             [&](size_t, size_t begin, size_t end) {
                               for (size_t b = begin; b < end; ++b) {
                                 scan_band(b);
                               }
                             });
  }

  std::vector<uint64_t> seen;  // encoded pairs for dedup
  size_t total = 0;
  for (const auto& pairs : band_pairs) total += pairs.size();
  seen.reserve(total);
  for (const auto& pairs : band_pairs) {
    seen.insert(seen.end(), pairs.begin(), pairs.end());
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  out.reserve(seen.size());
  for (uint64_t enc : seen) {
    out.emplace_back(static_cast<uint32_t>(enc >> 32),
                     static_cast<uint32_t>(enc & 0xffffffffu));
  }
  return out;
}

}  // namespace vexus::index
