#include "common/bitset_kernels.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VEXUS_BITSET_SIMD 1
#include <immintrin.h>
#endif

namespace vexus::bitset_kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the pre-SIMD Bitset loops, verbatim. Reference for the
// parity fuzz, fallback for non-x86, and the bench baseline.
// ---------------------------------------------------------------------------

size_t ScalarCount(const uint64_t* a, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i]));
  }
  return c;
}

size_t ScalarAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c;
}

size_t ScalarAndNotCount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return c;
}

size_t ScalarAndAndNotCount(const uint64_t* a, const uint64_t* b,
                            const uint64_t* c, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i] & ~c[i]));
  }
  return count;
}

void ScalarOr(const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] | b[i];
}

size_t ScalarOrCountInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                         size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = a[i] | b[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

size_t ScalarOrAndCountInto(const uint64_t* a, const uint64_t* b,
                            const uint64_t* mask, uint64_t* out, size_t n) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = (a[i] | b[i]) & mask[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

void ScalarAndOrCount(const uint64_t* a, const uint64_t* b, size_t n,
                      size_t* inter, size_t* uni) {
  size_t ci = 0, cu = 0;
  for (size_t i = 0; i < n; ++i) {
    ci += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
    cu += static_cast<size_t>(__builtin_popcountll(a[i] | b[i]));
  }
  *inter = ci;
  *uni = cu;
}

#ifdef VEXUS_BITSET_SIMD

// ---------------------------------------------------------------------------
// AVX2 tier. Popcount via the vpshufb nibble-LUT + vpsadbw reduction
// (Muła's algorithm): per 256-bit lane, per-byte popcounts from two
// 16-entry table lookups, summed into 4 × u64 by the horizontal SAD
// against zero. Four words per iteration with one add into a 64-bit
// accumulator vector — no lane can overflow (max 256 per step, 2^58
// steps away from wrap).
// ---------------------------------------------------------------------------

#define VEXUS_TARGET_AVX2 __attribute__((target("avx2")))

VEXUS_TARGET_AVX2 inline __m256i Popcnt256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

VEXUS_TARGET_AVX2 inline size_t Hsum256(__m256i acc) {
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<size_t>(_mm_cvtsi128_si64(s)) +
         static_cast<size_t>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

VEXUS_TARGET_AVX2 size_t Avx2Count(const uint64_t* a, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, Popcnt256(va));
  }
  size_t c = Hsum256(acc);
  for (; i < n; ++i) c += static_cast<size_t>(__builtin_popcountll(a[i]));
  return c;
}

VEXUS_TARGET_AVX2 size_t Avx2AndCount(const uint64_t* a, const uint64_t* b,
                                      size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, Popcnt256(_mm256_and_si256(va, vb)));
  }
  size_t c = Hsum256(acc);
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c;
}

VEXUS_TARGET_AVX2 size_t Avx2AndNotCount(const uint64_t* a, const uint64_t* b,
                                         size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // vpandn computes ~first & second, so the operand order is (b, a).
    acc = _mm256_add_epi64(acc, Popcnt256(_mm256_andnot_si256(vb, va)));
  }
  size_t c = Hsum256(acc);
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return c;
}

VEXUS_TARGET_AVX2 size_t Avx2AndAndNotCount(const uint64_t* a,
                                            const uint64_t* b,
                                            const uint64_t* c, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i vc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i));
    acc = _mm256_add_epi64(
        acc, Popcnt256(_mm256_andnot_si256(vc, _mm256_and_si256(va, vb))));
  }
  size_t count = Hsum256(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i] & ~c[i]));
  }
  return count;
}

VEXUS_TARGET_AVX2 void Avx2Or(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(va, vb));
  }
  for (; i < n; ++i) out[i] = a[i] | b[i];
}

VEXUS_TARGET_AVX2 size_t Avx2OrCountInto(const uint64_t* a, const uint64_t* b,
                                         uint64_t* out, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i w = _mm256_or_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
    acc = _mm256_add_epi64(acc, Popcnt256(w));
  }
  size_t c = Hsum256(acc);
  for (; i < n; ++i) {
    uint64_t w = a[i] | b[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

VEXUS_TARGET_AVX2 size_t Avx2OrAndCountInto(const uint64_t* a,
                                            const uint64_t* b,
                                            const uint64_t* mask, uint64_t* out,
                                            size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    __m256i vm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    __m256i w = _mm256_and_si256(_mm256_or_si256(va, vb), vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), w);
    acc = _mm256_add_epi64(acc, Popcnt256(w));
  }
  size_t c = Hsum256(acc);
  for (; i < n; ++i) {
    uint64_t w = (a[i] | b[i]) & mask[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

VEXUS_TARGET_AVX2 void Avx2AndOrCount(const uint64_t* a, const uint64_t* b,
                                      size_t n, size_t* inter, size_t* uni) {
  __m256i acc_i = _mm256_setzero_si256();
  __m256i acc_u = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc_i = _mm256_add_epi64(acc_i, Popcnt256(_mm256_and_si256(va, vb)));
    acc_u = _mm256_add_epi64(acc_u, Popcnt256(_mm256_or_si256(va, vb)));
  }
  size_t ci = Hsum256(acc_i);
  size_t cu = Hsum256(acc_u);
  for (; i < n; ++i) {
    ci += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
    cu += static_cast<size_t>(__builtin_popcountll(a[i] | b[i]));
  }
  *inter = ci;
  *uni = cu;
}

// ---------------------------------------------------------------------------
// AVX-512 tier: VPOPCNTDQ makes the popcount a single instruction over
// eight words, so every kernel is load → combine → vpopcntq → add.
// Gated on avx512f + avx512vpopcntdq at dispatch.
// ---------------------------------------------------------------------------

#define VEXUS_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512vpopcntdq")))

// Horizontal sum of the eight 64-bit lanes. Spelled as a store and a scalar
// fold rather than _mm512_reduce_add_epi64: GCC 12's header implements that
// reduction with _mm256_undefined_si256(), which trips -Wuninitialized at
// every call site. It runs once per kernel call, outside the word loop.
VEXUS_TARGET_AVX512 inline size_t Hsum512(__m512i acc) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  size_t sum = 0;
  for (uint64_t lane : lanes) sum += static_cast<size_t>(lane);
  return sum;
}

VEXUS_TARGET_AVX512 size_t Avx512Count(const uint64_t* a, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  size_t c = Hsum512(acc);
  for (; i < n; ++i) c += static_cast<size_t>(__builtin_popcountll(a[i]));
  return c;
}

VEXUS_TARGET_AVX512 size_t Avx512AndCount(const uint64_t* a, const uint64_t* b,
                                          size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t c = Hsum512(acc);
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c;
}

VEXUS_TARGET_AVX512 size_t Avx512AndNotCount(const uint64_t* a,
                                             const uint64_t* b, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w = _mm512_andnot_si512(_mm512_loadu_si512(b + i),
                                    _mm512_loadu_si512(a + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t c = Hsum512(acc);
  for (; i < n; ++i) {
    c += static_cast<size_t>(__builtin_popcountll(a[i] & ~b[i]));
  }
  return c;
}

VEXUS_TARGET_AVX512 size_t Avx512AndAndNotCount(const uint64_t* a,
                                                const uint64_t* b,
                                                const uint64_t* c, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w = _mm512_andnot_si512(
        _mm512_loadu_si512(c + i),
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i)));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t count = Hsum512(acc);
  for (; i < n; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i] & ~c[i]));
  }
  return count;
}

VEXUS_TARGET_AVX512 void Avx512Or(const uint64_t* a, const uint64_t* b,
                                  uint64_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(out + i, _mm512_or_si512(_mm512_loadu_si512(a + i),
                                                 _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] | b[i];
}

VEXUS_TARGET_AVX512 size_t Avx512OrCountInto(const uint64_t* a,
                                             const uint64_t* b, uint64_t* out,
                                             size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w =
        _mm512_or_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    _mm512_storeu_si512(out + i, w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t c = Hsum512(acc);
  for (; i < n; ++i) {
    uint64_t w = a[i] | b[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

VEXUS_TARGET_AVX512 size_t Avx512OrAndCountInto(const uint64_t* a,
                                                const uint64_t* b,
                                                const uint64_t* mask,
                                                uint64_t* out, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i w = _mm512_and_si512(
        _mm512_or_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i)),
        _mm512_loadu_si512(mask + i));
    _mm512_storeu_si512(out + i, w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(w));
  }
  size_t c = Hsum512(acc);
  for (; i < n; ++i) {
    uint64_t w = (a[i] | b[i]) & mask[i];
    out[i] = w;
    c += static_cast<size_t>(__builtin_popcountll(w));
  }
  return c;
}

VEXUS_TARGET_AVX512 void Avx512AndOrCount(const uint64_t* a, const uint64_t* b,
                                          size_t n, size_t* inter,
                                          size_t* uni) {
  __m512i acc_i = _mm512_setzero_si512();
  __m512i acc_u = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i va = _mm512_loadu_si512(a + i);
    __m512i vb = _mm512_loadu_si512(b + i);
    acc_i = _mm512_add_epi64(acc_i,
                             _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
    acc_u =
        _mm512_add_epi64(acc_u, _mm512_popcnt_epi64(_mm512_or_si512(va, vb)));
  }
  size_t ci = Hsum512(acc_i);
  size_t cu = Hsum512(acc_u);
  for (; i < n; ++i) {
    ci += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
    cu += static_cast<size_t>(__builtin_popcountll(a[i] | b[i]));
  }
  *inter = ci;
  *uni = cu;
}

#endif  // VEXUS_BITSET_SIMD

// ---------------------------------------------------------------------------
// Dispatch: one table per tier, active pointer resolved once.
// ---------------------------------------------------------------------------

struct KernelTable {
  Level level;
  size_t (*count)(const uint64_t*, size_t);
  size_t (*and_count)(const uint64_t*, const uint64_t*, size_t);
  size_t (*and_not_count)(const uint64_t*, const uint64_t*, size_t);
  size_t (*and_and_not_count)(const uint64_t*, const uint64_t*,
                              const uint64_t*, size_t);
  void (*or_)(const uint64_t*, const uint64_t*, uint64_t*, size_t);
  size_t (*or_count_into)(const uint64_t*, const uint64_t*, uint64_t*, size_t);
  size_t (*or_and_count_into)(const uint64_t*, const uint64_t*,
                              const uint64_t*, uint64_t*, size_t);
  void (*and_or_count)(const uint64_t*, const uint64_t*, size_t, size_t*,
                       size_t*);
};

constexpr KernelTable kScalarTable = {
    Level::kScalar,       ScalarCount,         ScalarAndCount,
    ScalarAndNotCount,    ScalarAndAndNotCount, ScalarOr,
    ScalarOrCountInto,    ScalarOrAndCountInto, ScalarAndOrCount,
};

#ifdef VEXUS_BITSET_SIMD
constexpr KernelTable kAvx2Table = {
    Level::kAvx2,       Avx2Count,         Avx2AndCount,
    Avx2AndNotCount,    Avx2AndAndNotCount, Avx2Or,
    Avx2OrCountInto,    Avx2OrAndCountInto, Avx2AndOrCount,
};

constexpr KernelTable kAvx512Table = {
    Level::kAvx512,       Avx512Count,         Avx512AndCount,
    Avx512AndNotCount,    Avx512AndAndNotCount, Avx512Or,
    Avx512OrCountInto,    Avx512OrAndCountInto, Avx512AndOrCount,
};
#endif

const KernelTable& TableFor(Level level) {
#ifdef VEXUS_BITSET_SIMD
  if (level == Level::kAvx512) return kAvx512Table;
  if (level == Level::kAvx2) return kAvx2Table;
#endif
  (void)level;
  return kScalarTable;
}

bool ForceScalarFromEnv() {
  const char* v = std::getenv("VEXUS_FORCE_SCALAR");
  // Any non-empty value other than literal "0" forces the scalar tier.
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

Level ResolveLevel() {
  if (ForceScalarFromEnv()) return Level::kScalar;
#ifdef VEXUS_BITSET_SIMD
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

/// The active table. Resolved once at first use; only the testing hooks
/// ever store to it afterwards (documented as hostile to concurrent use).
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = &TableFor(ResolveLevel());
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level ActiveLevel() { return Active().level; }

bool LevelSupported(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
#ifdef VEXUS_BITSET_SIMD
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Level::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
    case Level::kAvx2:
    case Level::kAvx512:
      return false;
#endif
  }
  return false;
}

size_t Count(const uint64_t* a, size_t n) { return Active().count(a, n); }

size_t AndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().and_count(a, b, n);
}

size_t AndNotCount(const uint64_t* a, const uint64_t* b, size_t n) {
  return Active().and_not_count(a, b, n);
}

size_t AndAndNotCount(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                      size_t n) {
  return Active().and_and_not_count(a, b, c, n);
}

void Or(const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  Active().or_(a, b, out, n);
}

size_t OrCountInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   size_t n) {
  return Active().or_count_into(a, b, out, n);
}

size_t OrAndCountInto(const uint64_t* a, const uint64_t* b,
                      const uint64_t* mask, uint64_t* out, size_t n) {
  return Active().or_and_count_into(a, b, mask, out, n);
}

void AndOrCount(const uint64_t* a, const uint64_t* b, size_t n, size_t* inter,
                size_t* uni) {
  Active().and_or_count(a, b, n, inter, uni);
}

namespace internal {

void SetLevelForTesting(Level level) {
  VEXUS_CHECK(LevelSupported(level))
      << "kernel tier " << LevelName(level) << " not supported on this CPU";
  g_active.store(&TableFor(level), std::memory_order_release);
}

void ResetLevelForTesting() {
  g_active.store(&TableFor(ResolveLevel()), std::memory_order_release);
}

}  // namespace internal

}  // namespace vexus::bitset_kernels
