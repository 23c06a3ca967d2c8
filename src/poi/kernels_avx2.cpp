// The AVX2 kernel tier: explicit 8-lane int32 intrinsics for the hot
// frequency kernels, plus the one floating-point slot, disk_sum_max, which
// tests four centres per double vector. This translation unit is compiled
// with -mavx2 -ffp-contract=off on x86-64 builds only; the dispatcher
// guarantees these functions run only on machines whose cpuid reports
// AVX2 (nothing here executes before that check). It calls no inline
// function shared with other translation units, so no AVX2 copy of one
// can leak into baseline code. Every function computes bit-identical
// results to the scalar tier — the per-tier oracle sweeps in
// tests/kernel_property_test are the gate.
#include "poi/kernel_ops.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace poiprivacy::poi::detail {

namespace {

inline __m256i loadu(const std::int32_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

bool dominates(const std::int32_t* a, const std::int32_t* b,
               std::size_t n) noexcept {
  // 4x unrolled with two independent OR chains: the straight-line scan
  // is load-throughput bound, and a single accumulator serializes the
  // ORs while the unroll amortizes the loop bookkeeping across 32 lanes.
  __m256i v0 = _mm256_setzero_si256();
  __m256i v1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c0 = _mm256_cmpgt_epi32(loadu(b + i), loadu(a + i));
    const __m256i c1 = _mm256_cmpgt_epi32(loadu(b + i + 8), loadu(a + i + 8));
    const __m256i c2 = _mm256_cmpgt_epi32(loadu(b + i + 16),
                                          loadu(a + i + 16));
    const __m256i c3 = _mm256_cmpgt_epi32(loadu(b + i + 24),
                                          loadu(a + i + 24));
    v0 = _mm256_or_si256(v0, _mm256_or_si256(c0, c1));
    v1 = _mm256_or_si256(v1, _mm256_or_si256(c2, c3));
  }
  for (; i + 8 <= n; i += 8) {
    v0 = _mm256_or_si256(v0, _mm256_cmpgt_epi32(loadu(b + i), loadu(a + i)));
  }
  std::int32_t tail = 0;
  for (; i < n; ++i) tail |= (a[i] < b[i]);
  const __m256i violated = _mm256_or_si256(v0, v1);
  return tail == 0 && _mm256_testz_si256(violated, violated) != 0;
}

bool dominates_early_exit(const std::int32_t* a, const std::int32_t* b,
                          std::size_t n) noexcept {
  // One branch per 64-lane block (8 vectors), like the scalar tier.
  constexpr std::size_t kBlock = 64;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    __m256i violated = _mm256_setzero_si256();
    for (std::size_t j = i; j < i + kBlock; j += 8) {
      violated = _mm256_or_si256(
          violated, _mm256_cmpgt_epi32(loadu(b + j), loadu(a + j)));
    }
    if (_mm256_testz_si256(violated, violated) == 0) return false;
  }
  __m256i violated = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    violated = _mm256_or_si256(violated,
                               _mm256_cmpgt_epi32(loadu(b + i), loadu(a + i)));
  }
  std::int32_t tail = 0;
  for (; i < n; ++i) tail |= (a[i] < b[i]);
  return tail == 0 && _mm256_testz_si256(violated, violated) != 0;
}

std::int64_t l1_distance(const std::int32_t* a, const std::int32_t* b,
                         std::size_t n) noexcept {
  // |a - b| = max(a,b) - min(a,b); the uint32 wraparound subtraction is
  // exact for the full int32 range, and each diff widens into one of
  // four uint64 accumulator lanes (a diff is < 2^32, so the lanes cannot
  // overflow for any realistic n). Two accumulators: the lo/hi widening
  // adds would otherwise form a two-deep latency chain per vector.
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc_lo = zero;
  __m256i acc_hi = zero;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va = loadu(a + i);
    const __m256i vb = loadu(b + i);
    const __m256i diff =
        _mm256_sub_epi32(_mm256_max_epi32(va, vb), _mm256_min_epi32(va, vb));
    acc_lo = _mm256_add_epi64(acc_lo, _mm256_unpacklo_epi32(diff, zero));
    acc_hi = _mm256_add_epi64(acc_hi, _mm256_unpackhi_epi32(diff, zero));
  }
  const __m256i acc = _mm256_add_epi64(acc_lo, acc_hi);
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const std::int32_t hi = a[i] > b[i] ? a[i] : b[i];
    const std::int32_t lo = a[i] > b[i] ? b[i] : a[i];
    sum += static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
  }
  return static_cast<std::int64_t>(sum);
}

void diff_into(const std::int32_t* a, const std::int32_t* b, std::int32_t* out,
               std::size_t n) noexcept {
  std::size_t i = 0;
  // Loads precede the stores within each iteration, so out == a / out == b
  // exact aliasing stays well-defined, as in the scalar tier. (Partial
  // overlaps are excluded by the span contract either way.) 4x unrolled:
  // one sub + store per 8 lanes leaves the loop bookkeeping as the
  // bottleneck otherwise.
  for (; i + 32 <= n; i += 32) {
    const __m256i d0 = _mm256_sub_epi32(loadu(a + i), loadu(b + i));
    const __m256i d1 = _mm256_sub_epi32(loadu(a + i + 8), loadu(b + i + 8));
    const __m256i d2 = _mm256_sub_epi32(loadu(a + i + 16), loadu(b + i + 16));
    const __m256i d3 = _mm256_sub_epi32(loadu(a + i + 24), loadu(b + i + 24));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), d0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8), d1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 16), d2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 24), d3);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(loadu(a + i), loadu(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

std::int64_t total(const std::int32_t* f, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(
                 _mm_loadu_si128(reinterpret_cast<const __m128i*>(f + i))));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) sum += f[i];
  return sum;
}

/// 8-bit positivity mask of one vector: bit j set iff f[i + j] > 0.
inline unsigned positive_mask8(const std::int32_t* f) noexcept {
  const __m256i pos = _mm256_cmpgt_epi32(loadu(f), _mm256_setzero_si256());
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(pos)));
}

std::size_t collect_positive(const std::int32_t* f, std::size_t n,
                             std::uint32_t* out) noexcept {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned m = positive_mask8(f + i); m != 0; m &= m - 1) {
      out[count++] =
          static_cast<std::uint32_t>(i) + static_cast<unsigned>(
                                              __builtin_ctz(m));
    }
  }
  for (; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += (f[i] > 0);
  }
  return count;
}

void pack_fingerprint(const std::int32_t* f, std::size_t n,
                      std::uint64_t* out) noexcept {
  std::size_t i = 0;
  std::uint64_t word = 0;
  for (; i + 8 <= n; i += 8) {
    word |= static_cast<std::uint64_t>(positive_mask8(f + i)) << (i % 64);
    if ((i + 8) % 64 == 0) {
      out[i / 64] = word;
      word = 0;
    }
  }
  for (; i < n; ++i) {
    word |= static_cast<std::uint64_t>(f[i] > 0) << (i % 64);
  }
  // Full words were flushed inside the loop; only a partial final word
  // (n not a multiple of 64) is still pending.
  if (n % 64 != 0) out[n / 64] = word;
}

bool fingerprint_covers(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words) noexcept {
  // Already word-parallel — 64 types per op on a handful of words — so
  // the scalar word loop is the right shape on every tier.
  std::uint64_t uncovered = 0;
  for (std::size_t w = 0; w < words; ++w) uncovered |= b[w] & ~a[w];
  return uncovered == 0;
}

inline void storeu(std::int32_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// -1 in the lanes of the four centres at cx/cy that the point (px, py)
/// is within r_sq of: the same sub, sub, mul, mul, add as distance_sq,
/// then an ordered <= (NaN lanes fail). This TU is built with
/// -ffp-contract=off, so the mul/add pair is never fused into an FMA.
inline __m256d within4(__m256d px, __m256d py, const double* cx,
                       const double* cy, __m256d r_sq) noexcept {
  const __m256d dx = _mm256_sub_pd(px, _mm256_load_pd(cx));
  const __m256d dy = _mm256_sub_pd(py, _mm256_load_pd(cy));
  const __m256d d_sq =
      _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
  return _mm256_cmp_pd(d_sq, r_sq, _CMP_LE_OQ);
}

/// Horizontal sum and max of eight int32 lanes.
inline std::int32_t hsum8(__m256i v) noexcept {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline std::int32_t hmax8(__m256i v) noexcept {
  __m128i s = _mm_max_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_max_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_max_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

void disk_sum_max(const DiskSumMaxArgs& a) noexcept {
  const std::size_t lanes = a.lanes;
  const __m256d r_sq = _mm256_set1_pd(a.r_sq);
  for (std::size_t s = 0; s < a.num_spans; ++s) {
    const spatial::GridIndex::Entry* const end = a.spans[s].end;
    for (const spatial::GridIndex::Entry* e = a.spans[s].begin; e != end;
         ++e) {
      const __m256d px = _mm256_set1_pd(e->pos.x);
      const __m256d py = _mm256_set1_pd(e->pos.y);
      std::int32_t* const row = a.hits + std::size_t{e->label} * lanes;
      a.touched[e->label / 64] |= std::uint64_t{1} << (e->label % 64);
      for (std::size_t j = 0; j < lanes; j += 8) {
        const __m256d in_lo = within4(px, py, a.cx + j, a.cy + j, r_sq);
        const __m256d in_hi =
            within4(px, py, a.cx + j + 4, a.cy + j + 4, r_sq);
        // Narrow the two 4 x 64-bit masks to one 8 x 32-bit mask. The
        // lanes come out as centres j+0,1,4,5,2,3,6,7 — a fixed order per
        // block, and the row is only ever summed and maxed.
        const __m256i in = _mm256_castps_si256(
            _mm256_shuffle_ps(_mm256_castpd_ps(in_lo), _mm256_castpd_ps(in_hi),
                              _MM_SHUFFLE(2, 0, 2, 0)));
        storeu(row + j, _mm256_sub_epi32(loadu(row + j), in));
      }
    }
  }
  // Reduce only the rows the scan touched: an untouched row is all zero,
  // and adding 0 or raising a max to 0 changes nothing (counts are >= 0).
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t w = 0; w < (a.labels + 63) / 64; ++w) {
    for (std::uint64_t bits = a.touched[w]; bits != 0; bits &= bits - 1) {
      const std::size_t label =
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      std::int32_t* const row = a.hits + label * lanes;
      __m256i sum = zero;
      __m256i max = zero;
      for (std::size_t j = 0; j < lanes; j += 8) {
        const __m256i v = loadu(row + j);
        sum = _mm256_add_epi32(sum, v);
        max = _mm256_max_epi32(max, v);
        storeu(row + j, zero);
      }
      a.sum[label] += hsum8(sum);
      const std::int32_t peak = hmax8(max);
      a.max[label] = a.max[label] > peak ? a.max[label] : peak;
    }
    a.touched[w] = 0;
  }
}
}  // namespace

const KernelOps& avx2_kernel_ops() noexcept {
  static constexpr KernelOps ops{
      dominates,        dominates_early_exit, l1_distance,
      diff_into,        total,                collect_positive,
      pack_fingerprint, fingerprint_covers,   disk_sum_max,
  };
  return ops;
}

}  // namespace poiprivacy::poi::detail

#endif  // x86-64
