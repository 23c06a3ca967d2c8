#include "cloak/kcloak.h"

#include <algorithm>

namespace poiprivacy::cloak {

AdaptiveIntervalCloaker::AdaptiveIntervalCloaker(std::vector<geo::Point> users,
                                                 geo::BBox bounds)
    : bounds_(bounds), tree_(std::move(users), bounds) {}

CloakResult AdaptiveIntervalCloaker::cloak(geo::Point target,
                                           std::size_t k) const {
  geo::BBox current = bounds_;
  std::size_t users_inside = 0;  // of `current`, once a quadrant is taken
  int depth = 0;
  while (depth < kMaxDepth) {
    const geo::Point c = current.center();
    // Quadrant containing the target (boundary goes left/bottom, matching
    // the quadtree's partition rule).
    const geo::BBox quadrant{
        target.x < c.x ? current.min_x : c.x,
        target.y < c.y ? current.min_y : c.y,
        target.x < c.x ? c.x : current.max_x,
        target.y < c.y ? c.y : current.max_y,
    };
    // Requester + (k-1) registered users give k-anonymity.
    const std::size_t inside = tree_.count_in_box(quadrant);
    if (inside + 1 < k) break;
    current = quadrant;
    users_inside = inside;
    ++depth;
  }
  if (depth == 0) users_inside = tree_.count_in_box(bounds_);
  return {current, users_inside, depth};
}

std::vector<geo::Point> AdaptiveIntervalCloaker::dummy_locations(
    geo::Point target, std::size_t k, common::Rng& rng) const {
  std::vector<geo::Point> out;
  if (k == 0) return out;
  const CloakResult result = cloak(target, k);
  out.reserve(k);
  out.push_back(target);
  append_region_draws(out, result.region, k, rng);
  return out;
}

std::vector<geo::Point> AdaptiveIntervalCloaker::region_dummy_locations(
    const geo::BBox& region, std::size_t k, common::Rng& rng) const {
  std::vector<geo::Point> out;
  out.reserve(k);
  append_region_draws(out, region, k, rng);
  return out;
}

void AdaptiveIntervalCloaker::append_region_draws(std::vector<geo::Point>& out,
                                                  const geo::BBox& region,
                                                  std::size_t k,
                                                  common::Rng& rng) const {
  // Per-thread id buffer: a steady-state draw allocates no ids.
  thread_local std::vector<std::uint32_t> ids;
  tree_.query_box_into(region, ids);
  rng.shuffle(ids);
  for (const std::uint32_t id : ids) {
    if (out.size() >= k) break;
    out.push_back(tree_.point(id));
  }
  while (out.size() < k) {
    out.push_back({rng.uniform(region.min_x, region.max_x),
                   rng.uniform(region.min_y, region.max_y)});
  }
}

std::vector<geo::Point> uniform_population(const geo::BBox& bounds,
                                           std::size_t count,
                                           common::Rng& rng) {
  std::vector<geo::Point> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({rng.uniform(bounds.min_x, bounds.max_x),
                   rng.uniform(bounds.min_y, bounds.max_y)});
  }
  return out;
}

}  // namespace poiprivacy::cloak
