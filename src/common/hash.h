// Hashing utilities: 64-bit mixing and combination (group description
// hashes and the cold-start bench's index fingerprint).
#pragma once

#include <cstdint>

namespace vexus {

/// Finalizing 64-bit mixer (MurmurHash3 fmix64). Bijective; good avalanche.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combination of two 64-bit hashes.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace vexus
