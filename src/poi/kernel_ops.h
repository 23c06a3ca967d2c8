// Internal dispatch table of the frequency kernels — one row of function
// pointers per KernelTier. Raw-pointer signatures keep the table tiers
// trivially ABI-compatible across translation units compiled with
// different target options (kernels_avx2.cpp builds with -mavx2; only
// the dispatcher decides whether its functions may run).
//
// Semantics contract (enforced per tier by tests/kernel_property_test
// against poi::scalar_ref): every implementation of a slot computes the
// same bits as the scalar reference for every input, including n == 0,
// odd tails, and saturating INT32_MAX counts. A slot may be null in the
// tiers that have no version of it; its caller then runs the portable
// path that the slot must reproduce.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "spatial/grid_index.h"

namespace poiprivacy::poi::detail {

/// One grid row's contiguous run of index entries, [begin, end).
struct EntrySpan {
  const spatial::GridIndex::Entry* begin;
  const spatial::GridIndex::Entry* end;
};

/// The operands of the candidate-major Phase D pass (disk_sum_max).
struct DiskSumMaxArgs {
  const EntrySpan* spans;  ///< the grid rows of the centres' union window
  std::size_t num_spans;
  /// Centre coordinates, `lanes` of each, 32-byte aligned; lanes past the
  /// real centres hold quiet NaN, which fails every compare.
  const double* cx;
  const double* cy;
  std::size_t lanes;  ///< a multiple of 8
  double r_sq;        ///< radius * radius
  std::size_t labels;  ///< every entry's label is < labels
  /// [labels x lanes] hit counts, label-major; all zero on entry, and
  /// left all zero again.
  std::int32_t* hits;
  /// One bit per label, (labels + 63) / 64 words; all zero on entry, and
  /// left all zero again.
  std::uint64_t* touched;
  std::int32_t* sum;  ///< per-label totals, accumulated
  std::int32_t* max;  ///< per-label maxima, accumulated
};

struct KernelOps {
  /// a_i >= b_i for all i.
  bool (*dominates)(const std::int32_t* a, const std::int32_t* b,
                    std::size_t n) noexcept;
  /// Same result; may return at the first violating 64-lane block.
  bool (*dominates_early_exit)(const std::int32_t* a, const std::int32_t* b,
                               std::size_t n) noexcept;
  /// Sum of |a_i - b_i| (exact for the full int32 range).
  std::int64_t (*l1_distance)(const std::int32_t* a, const std::int32_t* b,
                              std::size_t n) noexcept;
  /// out_i = a_i - b_i; out may alias a or b exactly.
  void (*diff_into)(const std::int32_t* a, const std::int32_t* b,
                    std::int32_t* out, std::size_t n) noexcept;
  /// Sum of all entries.
  std::int64_t (*total)(const std::int32_t* f, std::size_t n) noexcept;
  /// Writes the indices i with f_i > 0 to out (ascending; out must have
  /// room for n entries); returns how many were written. Feeds the
  /// top-k / Jaccard pipeline, whose merge runs over these survivors.
  std::size_t (*collect_positive)(const std::int32_t* f, std::size_t n,
                                  std::uint32_t* out) noexcept;
  /// Bit-packs presence: bit t of out[t / 64] set iff f_t > 0; tail bits
  /// of the last word are zero. out must hold (n + 63) / 64 words.
  void (*pack_fingerprint)(const std::int32_t* f, std::size_t n,
                           std::uint64_t* out) noexcept;
  /// b's presence bits are a subset of a's: (~a & b) == 0 word-wise.
  bool (*fingerprint_covers)(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t words) noexcept;
  /// Candidate-major Phase D over one union window (AVX2 tier only; null
  /// in the others). For every entry e of the spans and every centre lane
  /// j, adds `distance_sq(e.pos, c_j) <= r_sq` (the same IEEE operations,
  /// no FMA) to hits[e.label * lanes + j] and marks e.label in touched;
  /// then, for each touched label, adds the row's lane sum to sum[label],
  /// raises max[label] to the row's lane maximum, and zeroes the row and
  /// the bit. The caller keeps every sum within int32.
  void (*disk_sum_max)(const DiskSumMaxArgs& args) noexcept;
};

/// total_i += row_i, peak_i = max(peak_i, row_i), then row_i = 0: the
/// per-centre fold of PoiDatabase::freq_sum_max on the tiers without
/// disk_sum_max. The three rows must not overlap, and the caller keeps
/// every total_i + row_i within int32.
void portable_fold_counts(std::int32_t* row, std::int32_t* total,
                          std::int32_t* peak, std::size_t n) noexcept;

/// The portable tier (always compiled).
const KernelOps& scalar_kernel_ops() noexcept;

#if defined(__x86_64__) || defined(_M_X64)
#define POIPRIVACY_HAVE_AVX2_TIER 1
/// The AVX2 tier (x86-64 builds; callable only when cpuid says so).
const KernelOps& avx2_kernel_ops() noexcept;
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
#define POIPRIVACY_HAVE_NEON_TIER 1
/// The NEON tier (ARM builds; NEON is baseline on AArch64).
const KernelOps& neon_kernel_ops() noexcept;
#endif

/// The live dispatch pointer (null until first use; kernel_dispatch.cpp
/// owns resolution and set_kernel_tier publication).
extern std::atomic<const KernelOps*> g_active_kernel_ops;

/// Slow path: runs tier resolution once, then returns the live table.
const KernelOps& resolve_active_kernel_ops() noexcept;

/// The table the public kernels currently dispatch through. Inline so a
/// kernel call from a hot loop costs one relaxed-ish load and one
/// indirect call — the resolved-pointer check is the only branch.
inline const KernelOps& active_kernel_ops() noexcept {
  const KernelOps* ops = g_active_kernel_ops.load(std::memory_order_acquire);
  if (ops != nullptr) [[likely]] {
    return *ops;
  }
  return resolve_active_kernel_ops();
}

}  // namespace poiprivacy::poi::detail
