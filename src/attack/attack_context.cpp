#include "attack/attack_context.h"

#include <algorithm>

namespace poiprivacy::attack {

namespace {

// Stack budget for packing a release's presence bits in the noexcept,
// allocation-free scans below: 16 words cover 1024 POI types, far above
// any real registry (the paper's cities top out at M = 272). Larger
// vectors fall back to the plain per-type loop.
constexpr std::size_t kMaxStackWords = 16;

}  // namespace

std::size_t AttackContext::rarest_present(
    std::span<const std::int32_t> released, std::span<poi::TypeId> out,
    std::optional<poi::TypeId> skip) const noexcept {
  const poi::FrequencyVector& city = db_->city_freq();
  std::size_t n = 0;
  const auto consider = [&](poi::TypeId t) {
    if (skip && t == *skip) return;
    std::size_t pos = n;
    while (pos > 0 && (city[t] < city[out[pos - 1]] ||
                       (city[t] == city[out[pos - 1]] && t < out[pos - 1]))) {
      --pos;
    }
    if (pos >= out.size()) return;
    for (std::size_t j = std::min(n, out.size() - 1); j > pos; --j) {
      out[j] = out[j - 1];
    }
    out[pos] = t;
    if (n < out.size()) ++n;
  };
  const std::size_t words = poi::fingerprint_words(released.size());
  if (words <= kMaxStackWords) {
    // Word-parallel scan: pack the presence bits once (SIMD under the
    // active kernel tier), then visit only the set bits. Bits come out
    // in ascending type id, exactly like the plain loop, so the filled
    // prefix is unchanged.
    poi::FingerprintWord fp[kMaxStackWords];
    poi::pack_fingerprint(released, {fp, words});
    poi::for_each_present_type({fp, words}, consider);
  } else {
    for (poi::TypeId t = 0; t < released.size(); ++t) {
      if (released[t] > 0) consider(t);
    }
  }
  return n;
}

std::optional<poi::TypeId> AttackContext::pivot_type(
    std::span<const std::int32_t> released) const noexcept {
  poi::TypeId slot[1];
  if (rarest_present(released, slot) == 0) return std::nullopt;
  return slot[0];
}

std::vector<poi::TypeId> AttackContext::rare_present_types(
    std::span<const std::int32_t> released, std::size_t max_n,
    std::optional<poi::TypeId> skip) const {
  const poi::FrequencyVector& city = db_->city_freq();
  std::vector<poi::TypeId> present;
  const std::size_t words = poi::fingerprint_words(released.size());
  if (words <= kMaxStackWords) {
    poi::FingerprintWord fp[kMaxStackWords];
    poi::pack_fingerprint(released, {fp, words});
    poi::for_each_present_type({fp, words}, [&](poi::TypeId t) {
      if (!skip || t != *skip) present.push_back(t);
    });
  } else {
    for (poi::TypeId t = 0; t < released.size(); ++t) {
      if (released[t] > 0 && (!skip || t != *skip)) present.push_back(t);
    }
  }
  const std::size_t keep = std::min(max_n, present.size());
  std::partial_sort(present.begin(),
                    present.begin() + static_cast<std::ptrdiff_t>(keep),
                    present.end(), [&city](poi::TypeId a, poi::TypeId b) {
                      if (city[a] != city[b]) return city[a] < city[b];
                      return a < b;
                    });
  present.resize(keep);
  return present;
}

}  // namespace poiprivacy::attack
