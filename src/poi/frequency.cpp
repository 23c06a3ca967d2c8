#include "poi/frequency.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <set>

#include "poi/kernel_ops.h"

namespace poiprivacy::poi {

// ---- Dispatched kernels ---------------------------------------------------
//
// The span shims live inline in frequency.h; only the allocating and
// composite helpers need a translation unit.

FrequencyVector diff(const FrequencyVector& a, const FrequencyVector& b) {
  FrequencyVector out(a.size());
  diff_into(a, b, out);
  return out;
}

std::vector<TypeId> top_k_types(std::span<const std::int32_t> f,
                                std::size_t k) {
  // The survivor collection is the dispatched kernel (8 lanes fold into
  // one movemask on AVX2); the tiny partial sort below runs on whatever
  // it yields.
  std::vector<TypeId> ids(f.size());
  ids.resize(detail::active_kernel_ops().collect_positive(f.data(), f.size(),
                                                          ids.data()));
  const std::size_t keep = std::min(k, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(keep), ids.end(),
                    [&f](TypeId a, TypeId b) {
                      if (f[a] != f[b]) return f[a] > f[b];
                      return a < b;
                    });
  ids.resize(keep);
  return ids;
}

double jaccard(std::span<const TypeId> a, std::span<const TypeId> b) {
  // Sorted-merge set intersection: top-K id lists are tiny, so two sorts
  // of <= K elements beat the node-allocating std::set of the reference.
  std::vector<TypeId> sa(a.begin(), a.end());
  std::vector<TypeId> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  sa.erase(std::unique(sa.begin(), sa.end()), sa.end());
  std::sort(sb.begin(), sb.end());
  sb.erase(std::unique(sb.begin(), sb.end()), sb.end());
  if (sa.empty() && sb.empty()) return 1.0;
  std::size_t inter = 0;
  for (std::size_t i = 0, j = 0; i < sa.size() && j < sb.size();) {
    if (sa[i] < sb[j]) {
      ++i;
    } else if (sb[j] < sa[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const std::size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double top_k_jaccard(std::span<const std::int32_t> original,
                     std::span<const std::int32_t> protected_vec,
                     std::size_t k) {
  const auto a = top_k_types(original, k);
  const auto b = top_k_types(protected_vec, k);
  return jaccard(a, b);
}

void FreqArena::reset(std::size_t rows, std::size_t row_len) {
  rows_ = rows;
  row_len_ = row_len;
  data_.assign(rows * row_len, 0);  // keeps capacity
  has_fingerprints_ = false;
}

void FreqArena::pack_fingerprints() {
  const std::size_t words = fingerprint_words(row_len_);
  fingerprints_.resize(rows_ * words);  // keeps capacity
  for (std::size_t i = 0; i < rows_; ++i) {
    pack_fingerprint(row(i), {fingerprints_.data() + i * words, words});
  }
  has_fingerprints_ = true;
}

FreqArena& scratch_arena() noexcept {
  static thread_local FreqArena arena;
  return arena;
}

// ---- Scalar reference oracle ----------------------------------------------
//
// The original element-at-a-time implementations, kept verbatim so the
// property tests can pit the kernels above against known-good semantics.

namespace scalar_ref {

FrequencyVector diff(const FrequencyVector& a, const FrequencyVector& b) {
  assert(a.size() == b.size());
  FrequencyVector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::int64_t l1_distance(const FrequencyVector& a, const FrequencyVector& b) {
  assert(a.size() == b.size());
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += std::abs(static_cast<std::int64_t>(a[i]) - b[i]);
  }
  return acc;
}

bool dominates(const FrequencyVector& a, const FrequencyVector& b) noexcept {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

std::int64_t total(const FrequencyVector& f) noexcept {
  std::int64_t acc = 0;
  for (const std::int32_t n : f) acc += n;
  return acc;
}

std::vector<TypeId> top_k_types(const FrequencyVector& f, std::size_t k) {
  std::vector<TypeId> ids;
  ids.reserve(f.size());
  for (TypeId t = 0; t < f.size(); ++t) {
    if (f[t] > 0) ids.push_back(t);
  }
  const std::size_t keep = std::min(k, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(keep), ids.end(),
                    [&f](TypeId a, TypeId b) {
                      if (f[a] != f[b]) return f[a] > f[b];
                      return a < b;
                    });
  ids.resize(keep);
  return ids;
}

double jaccard(std::span<const TypeId> a, std::span<const TypeId> b) {
  const std::set<TypeId> sa(a.begin(), a.end());
  const std::set<TypeId> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  std::size_t inter = 0;
  for (const TypeId t : sa) inter += sb.count(t);
  const std::size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double top_k_jaccard(const FrequencyVector& original,
                     const FrequencyVector& protected_vec, std::size_t k) {
  const auto a = top_k_types(original, k);
  const auto b = top_k_types(protected_vec, k);
  return jaccard(a, b);
}

void fold_counts(FrequencyVector& row, FrequencyVector& total,
                 FrequencyVector& peak) noexcept {
  assert(row.size() == total.size() && row.size() == peak.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    total[i] += row[i];
    peak[i] = std::max(peak[i], row[i]);
    row[i] = 0;
  }
}

std::vector<FingerprintWord> pack_fingerprint(const FrequencyVector& f) {
  std::vector<FingerprintWord> out(fingerprint_words(f.size()), 0);
  for (std::size_t t = 0; t < f.size(); ++t) {
    if (f[t] > 0) out[t / 64] |= FingerprintWord{1} << (t % 64);
  }
  return out;
}

bool presence_covers(const FrequencyVector& a,
                     const FrequencyVector& b) noexcept {
  assert(a.size() == b.size());
  for (std::size_t t = 0; t < b.size(); ++t) {
    if (b[t] > 0 && a[t] <= 0) return false;
  }
  return true;
}

}  // namespace scalar_ref

}  // namespace poiprivacy::poi
