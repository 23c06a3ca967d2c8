// Adaptive-interval spatial k-cloaking (Gruteser & Grunwald, MobiSys'03),
// used both as a standalone defense (Section III-C) and as the dummy-
// location source inside the differentially private defense (Section V-B).
//
// The cloaker quarters the city recursively: as long as the quadrant
// containing the requester still holds at least k users (the requester
// plus k-1 registered users), it descends; the first quadrant that would
// break k-anonymity stops the recursion and its parent is the cloak.
#pragma once

#include <vector>

#include "common/rng.h"
#include "geo/geometry.h"
#include "spatial/quadtree.h"

namespace poiprivacy::cloak {

struct CloakResult {
  geo::BBox region;
  std::size_t users_inside = 0;  ///< registered users in the region
  int depth = 0;                 ///< number of quartering steps taken
};

class AdaptiveIntervalCloaker {
 public:
  /// `users` are the registered user positions (the requester is counted
  /// implicitly and need not be among them).
  AdaptiveIntervalCloaker(std::vector<geo::Point> users, geo::BBox bounds);

  /// Smallest quadrant chain containing `target` with >= k-anonymity.
  /// k <= 1 degenerates to the deepest quadrant containing the target.
  CloakResult cloak(geo::Point target, std::size_t k) const;

  /// k dummy locations for the DP defense: the target itself plus k-1
  /// locations drawn from the registered users inside the cloaked region
  /// (topped up with uniform points in the region if there are too few).
  std::vector<geo::Point> dummy_locations(geo::Point target, std::size_t k,
                                          common::Rng& rng) const;

  /// k locations drawn from the registered users inside `region` (topped
  /// up with uniform points in the region). Unlike dummy_locations the
  /// requester is not included, so the draw is a pure function of
  /// (region, k, rng state) — the canonical dummy set the serving layer
  /// caches per cloaked region.
  std::vector<geo::Point> region_dummy_locations(const geo::BBox& region,
                                                 std::size_t k,
                                                 common::Rng& rng) const;

  std::size_t num_users() const noexcept { return tree_.size(); }
  const geo::BBox& bounds() const noexcept { return bounds_; }

 private:
  /// Draws users inside `region` (then uniform top-up) until out.size() == k.
  void append_region_draws(std::vector<geo::Point>& out,
                           const geo::BBox& region, std::size_t k,
                           common::Rng& rng) const;

  geo::BBox bounds_;
  spatial::Quadtree tree_;
  static constexpr int kMaxDepth = 20;
};

/// Uniform synthetic user population (the paper assumes 10,000 users
/// uniformly distributed over each city).
std::vector<geo::Point> uniform_population(const geo::BBox& bounds,
                                           std::size_t count,
                                           common::Rng& rng);

}  // namespace poiprivacy::cloak
