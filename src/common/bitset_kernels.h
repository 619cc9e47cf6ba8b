// SIMD kernels for the word-parallel bitset operations on the greedy hot
// path: eight kernels, each in three tiers. Every trial swap of the
// incremental evaluator is one pass over ceil(U/64) words of the
// 278,858-user universe — popcounts fused with AND/OR — so these loops
// are where the 100 ms interaction budget is actually spent (trial
// evaluations per second is the currency).
//
// Dispatch follows the pattern common/crc32 established: the vector
// bodies live in one translation unit (bitset_kernels.cc) compiled with
// __attribute__((target(...))), so the rest of the build needs no -mavx2;
// __builtin_cpu_supports picks the widest supported tier once, at first
// use. The scalar loops are kept verbatim from the pre-SIMD Bitset — they
// are the fallback on non-x86/old CPUs, the reference the parity fuzz
// checks against, and the baseline the bench reports speedups over.
// Setting VEXUS_FORCE_SCALAR=1 in the environment pins dispatch to the
// scalar tier (CI runs the sanitizer jobs both ways).
//
// Every kernel returns an exact integer (counts, not estimates), so the
// tier in use can never change greedy output: objective floats are
// computed from the same integers in the same order — byte-identical
// selections across scalar/AVX2/AVX-512 is a tested invariant, not a
// hope.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vexus::bitset_kernels {

/// Dispatch tiers, widest last. kAvx512 requires AVX-512F + VPOPCNTDQ
/// (the vector popcount instruction is the whole point of the tier).
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Human-readable tier name ("scalar", "avx2", "avx512").
const char* LevelName(Level level);

/// The tier dispatch resolved to (CPU capability ∩ VEXUS_FORCE_SCALAR
/// override), after any SetLevelForTesting override.
Level ActiveLevel();

/// True when the running CPU can execute `level` (ignores the env
/// override) — the parity fuzz uses this to enumerate testable tiers.
bool LevelSupported(Level level);

// ---------------------------------------------------------------------------
// Dispatched kernels. All operate on arrays of `n` 64-bit words; callers
// (common/bitset.cc) guarantee matching lengths and masked tail bits.
// `out` may equal `a` or `b` for the pure bitwise kernels (word i depends
// only on word i of the inputs) but must not partially overlap.
// ---------------------------------------------------------------------------

/// popcount(a)
size_t Count(const uint64_t* a, size_t n);
/// popcount(a & b)
size_t AndCount(const uint64_t* a, const uint64_t* b, size_t n);
/// popcount(a & ~b)
size_t AndNotCount(const uint64_t* a, const uint64_t* b, size_t n);
/// popcount(a & b & ~c) — the anchored trial-swap coverage kernel.
size_t AndAndNotCount(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                      size_t n);
/// out = a | b (no count — prefix/suffix union table build).
void Or(const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n);
/// out = a | b, returns popcount(out) — fused union-popcount with store.
size_t OrCountInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   size_t n);
/// out = (a | b) & mask, returns popcount(out) — the rest(pos) build of
/// the anchored greedy pass in one sweep instead of three.
size_t OrAndCountInto(const uint64_t* a, const uint64_t* b,
                      const uint64_t* mask, uint64_t* out, size_t n);
/// *inter = popcount(a & b), *uni = popcount(a | b) in one pass — the
/// Jaccard kernel.
void AndOrCount(const uint64_t* a, const uint64_t* b, size_t n, size_t* inter,
                size_t* uni);

namespace internal {

/// Pins dispatch to `level` for the calling process (CHECKs
/// LevelSupported). Test/bench only: not thread-safe against concurrent
/// kernel calls, so flip it only while no other thread touches bitsets.
void SetLevelForTesting(Level level);

/// Restores the level dispatch originally resolved (CPU ∩ env override).
void ResetLevelForTesting();

}  // namespace internal

}  // namespace vexus::bitset_kernels
