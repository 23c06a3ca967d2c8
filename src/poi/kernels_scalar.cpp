// The portable kernel tier: straight-line index loops over raw pointers
// that GCC/Clang auto-vectorize at the baseline ISA (comparisons fold
// into 0/1 lanes combined with |, the wide accumulators use widening
// adds). These are the PR-4 span kernels verbatim, now one row of the
// dispatch table; poi::scalar_ref in frequency.cpp stays the separate,
// deliberately naive oracle. disk_sum_max is null here: on this tier
// PoiDatabase::freq_sum_max scans centre by centre and folds with
// portable_fold_counts.
#include "poi/kernel_ops.h"

namespace poiprivacy::poi::detail {

namespace {

bool dominates(const std::int32_t* a, const std::int32_t* b,
               std::size_t n) noexcept {
  std::int32_t violated = 0;
  for (std::size_t i = 0; i < n; ++i) violated |= (a[i] < b[i]);
  return violated == 0;
}

bool dominates_early_exit(const std::int32_t* a, const std::int32_t* b,
                          std::size_t n) noexcept {
  constexpr std::size_t kBlock = 64;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::int32_t violated = 0;
    for (std::size_t j = i; j < i + kBlock; ++j) violated |= (a[j] < b[j]);
    if (violated) return false;
  }
  std::int32_t violated = 0;
  for (; i < n; ++i) violated |= (a[i] < b[i]);
  return violated == 0;
}

std::int64_t l1_distance(const std::int32_t* a, const std::int32_t* b,
                         std::size_t n) noexcept {
  // |a - b| as max(a,b) - min(a,b) keeps the lanes 32-bit (min/max/sub
  // vectorize 4-8 wide; only the accumulate widens). The subtraction is
  // done in uint32: the true difference always fits, so the wraparound
  // arithmetic is exact even for INT32_MAX - INT32_MIN.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t hi = a[i] > b[i] ? a[i] : b[i];
    const std::int32_t lo = a[i] > b[i] ? b[i] : a[i];
    acc += static_cast<std::uint32_t>(hi) - static_cast<std::uint32_t>(lo);
  }
  return static_cast<std::int64_t>(acc);
}

void diff_into(const std::int32_t* a, const std::int32_t* b, std::int32_t* out,
               std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

std::int64_t total(const std::int32_t* f, std::size_t n) noexcept {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += f[i];
  return acc;
}

std::size_t collect_positive(const std::int32_t* f, std::size_t n,
                             std::uint32_t* out) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += (f[i] > 0);
  }
  return count;
}

void pack_fingerprint(const std::int32_t* f, std::size_t n,
                      std::uint64_t* out) noexcept {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t end = base + 64 < n ? base + 64 : n;
    std::uint64_t word = 0;
    for (std::size_t i = base; i < end; ++i) {
      word |= static_cast<std::uint64_t>(f[i] > 0) << (i - base);
    }
    out[base / 64] = word;
  }
}

bool fingerprint_covers(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words) noexcept {
  std::uint64_t uncovered = 0;
  for (std::size_t w = 0; w < words; ++w) uncovered |= b[w] & ~a[w];
  return uncovered == 0;
}

}  // namespace

void portable_fold_counts(std::int32_t* row, std::int32_t* total,
                          std::int32_t* peak, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v = row[i];
    total[i] += v;
    peak[i] = peak[i] > v ? peak[i] : v;
    row[i] = 0;
  }
}

const KernelOps& scalar_kernel_ops() noexcept {
  static constexpr KernelOps ops{
      dominates,        dominates_early_exit, l1_distance,
      diff_into,        total,                collect_positive,
      pack_fingerprint, fingerprint_covers,   nullptr,
  };
  return ops;
}

}  // namespace poiprivacy::poi::detail
