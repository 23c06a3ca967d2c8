// POI type frequency vectors — the aggregate that users release to LBS
// applications and that the attacks/defenses operate on.
//
// The free functions below are the frequency *kernel layer*: contiguous
// int32 row kernels that every pipeline (re-identification,
// fingerprinting, the DP defense, the serving layer) bottoms out in.
// They accept spans so the same code path serves owned FrequencyVectors
// and rows of a FreqArena, and they dispatch at runtime to one of the
// kernel tiers of poi/kernel_tiers.h — portable auto-vectorized loops,
// explicit AVX2, or explicit NEON — selected once per process (cpuid /
// POIPRIVACY_KERNEL). Every tier computes bit-identical results. The
// original scalar loops are kept verbatim in scalar_ref:: as the
// reference oracle — tests/kernel_property_test.cpp pits every kernel
// of every tier against its oracle on seeded random inputs.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "poi/kernel_ops.h"
#include "poi/kernel_tiers.h"
#include "poi/poi.h"

namespace poiprivacy::poi {

/// Frequency-vector storage starts on a cache-line boundary: the SIMD
/// kernel tiers read rows in 32-byte gulps, and a 32-byte load that
/// straddles a cache line costs roughly twice one that does not — on the
/// straight-line kernels (dominates, diff_into, l1_distance) that split
/// alone costs ~1.4x. 16-byte malloc alignment guarantees a straddle
/// every other vector, so the container carries its own allocator.
inline constexpr std::size_t kFrequencyAlignment = 64;

/// Minimal aligned allocator. Deliberately NOT the over-aligned
/// operator new: glibc's memalign path bypasses the thread cache and
/// costs ~4x a plain small allocation, which matters for the paths that
/// return an owned FrequencyVector per query. Instead over-allocate on
/// the plain (cached) path and align by hand, stashing the raw pointer
/// just below the aligned block for deallocate().
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) && Alignment >= sizeof(void*) &&
                (Alignment & (Alignment - 1)) == 0);
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  // Spelled out because the allocator's second parameter is a non-type
  // argument, which defeats allocator_traits' automatic rebinding.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    void* raw = ::operator new(n * sizeof(T) + Alignment + sizeof(void*));
    void* user = reinterpret_cast<void*>(
        (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) + Alignment -
         1) &
        ~std::uintptr_t{Alignment - 1});
    static_cast<void**>(user)[-1] = raw;
    return static_cast<T*>(user);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// F(l, r): count of POIs of each type within radius r of location l.
/// Indexed by TypeId; length is the number of types in the city.
using FrequencyVector =
    std::vector<std::int32_t, AlignedAllocator<std::int32_t, kFrequencyAlignment>>;

// The span kernels below are inline shims over the active dispatch tier
// (poi/kernel_tiers.h): a call from a hot loop compiles to one atomic
// load of the live table plus one indirect call, with no intermediate
// call frames.

/// a - b elementwise into `out` (all three sizes must match; `out` may
/// alias `a` or `b`).
inline void diff_into(std::span<const std::int32_t> a,
                      std::span<const std::int32_t> b,
                      std::span<std::int32_t> out) noexcept {
  assert(a.size() == b.size() && a.size() == out.size());
  detail::active_kernel_ops().diff_into(a.data(), b.data(), out.data(),
                                        a.size());
}

/// a - b elementwise (sizes must match).
FrequencyVector diff(const FrequencyVector& a, const FrequencyVector& b);

/// Sum of |a_i - b_i|.
inline std::int64_t l1_distance(std::span<const std::int32_t> a,
                                std::span<const std::int32_t> b) noexcept {
  assert(a.size() == b.size());
  return detail::active_kernel_ops().l1_distance(a.data(), b.data(), a.size());
}

/// True iff a_i >= b_i for every i. This is the covering test at the heart
/// of the region re-identification attack: if p lies within r of l then
/// F(p, 2r) dominates F(l, r) componentwise.
inline bool dominates(std::span<const std::int32_t> a,
                      std::span<const std::int32_t> b) noexcept {
  assert(a.size() == b.size());
  return detail::active_kernel_ops().dominates(a.data(), b.data(), a.size());
}

/// dominates() with one branch per 64-lane block instead of none: the
/// same result, but returns as soon as a block contains a violation.
/// Prefer it where most rows fail the test (the fingerprint scan, the
/// candidate-pruning loops); prefer the straight-line dominates() where
/// rows usually pass and the early branch is pure overhead.
inline bool dominates_early_exit(std::span<const std::int32_t> a,
                                 std::span<const std::int32_t> b) noexcept {
  assert(a.size() == b.size());
  return detail::active_kernel_ops().dominates_early_exit(a.data(), b.data(),
                                                          a.size());
}

/// Total number of POIs counted.
inline std::int64_t total(std::span<const std::int32_t> f) noexcept {
  return detail::active_kernel_ops().total(f.data(), f.size());
}

/// Folds one count row into a running per-type sum and max, then zeroes
/// the row: total_i += row_i, peak_i = max(peak_i, row_i), row_i = 0.
/// The three spans must have one size and must not overlap, and every
/// total_i + row_i must fit in int32 (PoiDatabase::freq_sum_max checks
/// that bound once per call).
inline void fold_counts(std::span<std::int32_t> row,
                        std::span<std::int32_t> total,
                        std::span<std::int32_t> peak) noexcept {
  assert(row.size() == total.size() && row.size() == peak.size());
  detail::portable_fold_counts(row.data(), total.data(), peak.data(),
                               row.size());
}

/// Type ids of the K largest entries (ties broken by smaller id), only
/// types with positive frequency. May return fewer than K.
std::vector<TypeId> top_k_types(std::span<const std::int32_t> f,
                                std::size_t k);

/// Jaccard index |A ∩ B| / |A ∪ B| of two type sets; 1.0 if both empty.
/// Duplicates in the inputs are ignored (set semantics).
double jaccard(std::span<const TypeId> a, std::span<const TypeId> b);

/// Top-K Jaccard utility between an original and a protected vector — the
/// paper's utility metric for the defense mechanisms (Section VI-A).
double top_k_jaccard(std::span<const std::int32_t> original,
                     std::span<const std::int32_t> protected_vec,
                     std::size_t k);

// ---- Bit-packed presence fingerprints --------------------------------------
//
// One bit per POI type (bit t of word t/64 set iff the count is
// positive), so presence reasoning over M types collapses to
// ceil(M / 64) word ops. The key lemma the attacks use: if
// dominates(a, b) then b's presence bits are a subset of a's, so a
// failed fingerprint_covers() refutes dominance for the price of a few
// AND-NOTs — the word-parallel pre-check in front of every full
// dominance scan, and the word-parallel form of the rare-present-type
// scans. Tail bits past M are always zero, so whole-word operations
// never see garbage (tests pin M = 1, 63, 64, 65, 127, 177, 272).

using FingerprintWord = std::uint64_t;

/// Words needed to fingerprint `num_types` types.
constexpr std::size_t fingerprint_words(std::size_t num_types) noexcept {
  return (num_types + 63) / 64;
}

/// Packs presence bits of `f` into `out` (size fingerprint_words(f.size())).
inline void pack_fingerprint(std::span<const std::int32_t> f,
                             std::span<FingerprintWord> out) noexcept {
  assert(out.size() == fingerprint_words(f.size()));
  detail::active_kernel_ops().pack_fingerprint(f.data(), f.size(), out.data());
}

/// True iff b's presence bits are a subset of a's ((~a & b) == 0
/// word-wise; sizes must match). Necessary for dominates(a_vec, b_vec).
inline bool fingerprint_covers(std::span<const FingerprintWord> a,
                               std::span<const FingerprintWord> b) noexcept {
  assert(a.size() == b.size());
  return detail::active_kernel_ops().fingerprint_covers(a.data(), b.data(),
                                                        a.size());
}

/// All fingerprint bits clear (an empty aggregate).
inline bool fingerprint_empty(std::span<const FingerprintWord> fp) noexcept {
  FingerprintWord any = 0;
  for (const FingerprintWord w : fp) any |= w;
  return any == 0;
}

/// Calls `fn(TypeId)` for every set bit, in ascending type order.
template <typename Fn>
void for_each_present_type(std::span<const FingerprintWord> fp, Fn&& fn) {
  for (std::size_t w = 0; w < fp.size(); ++w) {
    for (FingerprintWord bits = fp[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<TypeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
}

/// Reusable SoA count matrix: one contiguous int32 buffer, one row per
/// query. reset() reuses the previous allocation whenever the new batch
/// fits, so a long-lived (e.g. per-thread) arena makes batched aggregate
/// queries allocation-free in steady state. Rows are contiguous and
/// packed (stride == row_len, buffer base cache-line aligned), so they
/// feed the span kernels above directly. Deliberately NOT padded to a
/// 32-byte row stride: rows here are filled per batch and then scanned
/// once or with early exit, and measuring showed the fill paying ~25%
/// for padding's cache footprint while the scans gained almost nothing
/// (long straight-line scans run over owned FrequencyVectors, which the
/// aligned allocator above already serves).
class FreqArena {
 public:
  /// Resizes to rows x row_len and zero-fills; keeps capacity. Discards
  /// any fingerprints packed for the previous batch.
  void reset(std::size_t rows, std::size_t row_len);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t row_len() const noexcept { return row_len_; }

  std::span<std::int32_t> row(std::size_t i) noexcept {
    return {data_.data() + i * row_len_, row_len_};
  }
  std::span<const std::int32_t> row(std::size_t i) const noexcept {
    return {data_.data() + i * row_len_, row_len_};
  }

  /// (Re)packs the presence fingerprint of every row, stored alongside
  /// the counts (one fingerprint_words(row_len) run of words per row,
  /// same reused-capacity contract as the counts). Call after the rows
  /// are filled; mutating a row afterwards stales its fingerprint until
  /// the next pack.
  void pack_fingerprints();

  bool has_fingerprints() const noexcept { return has_fingerprints_; }

  /// Bit-packed presence of row i (valid after pack_fingerprints()).
  std::span<const FingerprintWord> fingerprint(std::size_t i) const noexcept {
    assert(has_fingerprints_);
    const std::size_t words = fingerprint_words(row_len_);
    return {fingerprints_.data() + i * words, words};
  }

 private:
  std::vector<std::int32_t, AlignedAllocator<std::int32_t, kFrequencyAlignment>>
      data_;
  std::vector<FingerprintWord> fingerprints_;
  std::size_t rows_ = 0;
  std::size_t row_len_ = 0;
  bool has_fingerprints_ = false;
};

/// The process-wide per-thread scratch arena. One FreqArena per thread,
/// created on first use and reused for the thread's lifetime, so every
/// component that fills-and-consumes a batch of frequency rows inside one
/// call (the attacks' candidate scans) shares a single steady-state
/// buffer instead of growing a private `static thread_local` arena each.
/// The DP defense's dummy aggregate needs no row matrix: it folds each
/// row as it is scanned (PoiDatabase::freq_sum_max).
///
/// Lifetime contract: the pool workers of common::global_pool() live for
/// the whole process, so after warmup no scratch call allocates. The
/// arena's contents (and any row span taken from it) are valid only until
/// the next scratch_arena()-based fill on the same thread — treat it as a
/// register, not a cache: fill it, consume it, and never hold a row across
/// a call into another component that might also use the scratch arena.
FreqArena& scratch_arena() noexcept;

/// The pre-kernel scalar implementations, kept as the reference oracle
/// for the vectorized kernels (property tests compare the two on random
/// inputs). Not for production call sites.
namespace scalar_ref {

FrequencyVector diff(const FrequencyVector& a, const FrequencyVector& b);
std::int64_t l1_distance(const FrequencyVector& a, const FrequencyVector& b);
bool dominates(const FrequencyVector& a, const FrequencyVector& b) noexcept;
std::int64_t total(const FrequencyVector& f) noexcept;
std::vector<TypeId> top_k_types(const FrequencyVector& f, std::size_t k);
double jaccard(std::span<const TypeId> a, std::span<const TypeId> b);
double top_k_jaccard(const FrequencyVector& original,
                     const FrequencyVector& protected_vec, std::size_t k);

/// Element-at-a-time reference for poi::fold_counts.
void fold_counts(FrequencyVector& row, FrequencyVector& total,
                 FrequencyVector& peak) noexcept;

/// One-bit-at-a-time reference for poi::pack_fingerprint.
std::vector<FingerprintWord> pack_fingerprint(const FrequencyVector& f);

/// Presence-subset test straight off the count vectors: every type
/// present in b is present in a. The semantic poi::fingerprint_covers
/// must reproduce through the packed words.
bool presence_covers(const FrequencyVector& a,
                     const FrequencyVector& b) noexcept;

}  // namespace scalar_ref

}  // namespace poiprivacy::poi
