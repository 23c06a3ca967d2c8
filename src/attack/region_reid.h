// Region re-identification — the baseline attack of Cao et al. (IMWUT'18)
// as reviewed in Section II-D of the paper.
//
// Given a released type frequency vector F(l, r), the attacker:
//   1. takes the citywide-rarest type t present in the vector,
//   2. collects every POI of type t as a candidate anchor,
//   3. prunes candidates p whose F(p, 2r) fails to dominate F(l, r)
//      componentwise (if p is within r of l, disk(l, r) is contained in
//      disk(p, 2r), so domination is necessary — the attack has no false
//      negatives),
//   4. declares success iff exactly one candidate survives; the user then
//      lies somewhere in disk(p*, r), an area of pi r^2.
//
// Step 3 runs in type-major columns: the database caches, per (pivot
// type, 2r), one poi::TypeBlock whose row t holds F(p, 2r)[t] for every
// pivot-type POI p. A per-candidate lane mask starts all alive, and each
// type t with released[t] > 0 clears, in one pass over row t, the
// candidates whose count falls short; the loop ends as soon as no lane is
// alive. Each (candidate, type) pair is the integer comparison dominates()
// makes, and a type with released[t] <= 0 cannot violate dominance
// (counts are >= 0), so the survivors are exactly the candidates whose
// F(p, 2r) dominates the release, in pois_of_type order.
#pragma once

#include <optional>

#include "attack/attack_context.h"
#include "poi/database.h"

namespace poiprivacy::attack {

struct ReidResult {
  /// Candidate anchors surviving the pruning step (Phi in the paper).
  std::vector<poi::PoiId> candidates;
  /// The pivot (most infrequent present) type, if the vector was nonempty.
  std::optional<poi::TypeId> pivot_type;

  bool unique() const noexcept { return candidates.size() == 1; }
};

/// Reusable buffers for infer_into: the release's packed presence bits
/// and the per-candidate lane mask (-1 alive, 0 dead; one lane per
/// TypeBlock column). A caller that runs one inference per release (the
/// streaming linkage tracker) keeps one of these and pays zero
/// allocations per call in steady state.
struct ReidScratch {
  std::vector<poi::FingerprintWord> released_fp;
  std::vector<std::int32_t> alive;
};

class RegionReidentifier {
 public:
  explicit RegionReidentifier(const poi::PoiDatabase& db) : ctx_(db) {}

  /// Runs the attack on a released vector for query radius `r` km.
  /// Throws std::invalid_argument unless released.size() == num_types().
  ReidResult infer(const poi::FrequencyVector& released, double r) const;

  /// infer() into caller-owned result/scratch storage: `out` is cleared
  /// and refilled with the identical candidate set, reusing the capacity
  /// of its buffers and of the scratch across calls. Throws
  /// std::invalid_argument, leaving `out` untouched, unless
  /// released.size() == db().num_types() — in every build type.
  void infer_into(std::span<const std::int32_t> released, double r,
                  ReidScratch& scratch, ReidResult& out) const;

  /// Citywide-rarest type with a positive entry, if any.
  std::optional<poi::TypeId> pivot_type(
      const poi::FrequencyVector& released) const {
    return ctx_.pivot_type(released);
  }

  const poi::PoiDatabase& db() const noexcept { return ctx_.db(); }

 private:
  AttackContext ctx_;
};

/// The paper's success criterion, evaluated against ground truth: the
/// attack produced exactly one candidate and the true location indeed
/// lies within r of it.
bool attack_success(const ReidResult& result, const poi::PoiDatabase& db,
                    geo::Point true_location, double r) noexcept;

}  // namespace poiprivacy::attack
