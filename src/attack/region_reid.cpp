#include "attack/region_reid.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>

namespace poiprivacy::attack {

ReidResult RegionReidentifier::infer(const poi::FrequencyVector& released,
                                     double r) const {
  ReidResult result;
  ReidScratch scratch;
  infer_into(released, r, scratch, result);
  return result;
}

void RegionReidentifier::infer_into(std::span<const std::int32_t> released,
                                    double r, ReidScratch& scratch,
                                    ReidResult& out) const {
  const poi::PoiDatabase& db = ctx_.db();
  if (released.size() != db.num_types()) {
    throw std::invalid_argument(
        "RegionReidentifier::infer_into: release has " +
        std::to_string(released.size()) + " entries, the city has " +
        std::to_string(db.num_types()) + " types");
  }
  out.candidates.clear();
  out.pivot_type = ctx_.pivot_type(released);
  if (!out.pivot_type) return;

  // Cached: the same pivot types are probed at the same 2r for every
  // evaluated location.
  const poi::TypeBlock& block = db.type_block(*out.pivot_type, 2.0 * r);
  if (block.count == 0) return;
  const std::size_t stride = block.stride;
  scratch.alive.assign(stride, 0);
  std::fill_n(scratch.alive.begin(), block.count, -1);
  std::int32_t* const alive = scratch.alive.data();

  // One pass per present type over its row, all candidates at once; the
  // pad lanes start dead. A branch-free lane mask vectorizes, and the
  // OR-reduced mask ends the loop once every candidate is rejected. The
  // present types come off the release's packed presence bits: a
  // `released[t] > 0` branch over every type mispredicts on the release's
  // scattered presence pattern and measured ~1.8x slower per call.
  scratch.released_fp.resize(poi::fingerprint_words(released.size()));
  poi::pack_fingerprint(released, scratch.released_fp);
  for (std::size_t w = 0; w < scratch.released_fp.size(); ++w) {
    for (poi::FingerprintWord bits = scratch.released_fp[w]; bits != 0;
         bits &= bits - 1) {
      const std::size_t t = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      const std::int32_t need = released[t];
      const std::int32_t* const row = block.row(static_cast<poi::TypeId>(t));
      std::int32_t any = 0;
      for (std::size_t j = 0; j < stride; ++j) {
        alive[j] &= -static_cast<std::int32_t>(row[j] >= need);
        any |= alive[j];
      }
      if (any == 0) return;
    }
  }

  const std::vector<poi::PoiId>& ids = db.pois_of_type(*out.pivot_type);
  for (std::size_t j = 0; j < block.count; ++j) {
    if (alive[j] != 0) out.candidates.push_back(ids[j]);
  }
}

bool attack_success(const ReidResult& result, const poi::PoiDatabase& db,
                    geo::Point true_location, double r) noexcept {
  if (!result.unique()) return false;
  const geo::Point anchor = db.poi(result.candidates.front()).pos;
  return geo::distance(anchor, true_location) <= r + 1e-9;
}

}  // namespace poiprivacy::attack
