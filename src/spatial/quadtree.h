// Point-counting quadtree used by the adaptive-interval k-cloaking
// algorithm (Gruteser & Grunwald, MobiSys'03): the cloaker repeatedly
// quarters the city and needs fast "how many users are in this quadrant?"
// answers.
//
// Those quadrants are exactly the tree's own cells, so a count first
// descends to the deepest *exact* node whose closed box contains the query
// box and runs the recursion from there. A node is exact when the points
// inside its closed box are exactly the points of its subtree: no point of
// another subtree sits on its edges (a split line or the city edge) and
// none of its own points lies outside it (a point outside the bounds).
// Starting there cannot change a result, not even the order of query_box
// ids, because no other branch holds a point inside the query box; a cloak
// quadrant then costs O(depth) instead of a walk down every neighbour cell
// that touches its edges.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/geometry.h"

namespace poiprivacy::spatial {

class Quadtree {
 public:
  /// Builds over a static point set. `max_leaf` bounds the points per leaf,
  /// `max_depth` bounds recursion.
  Quadtree(std::vector<geo::Point> points, geo::BBox bounds,
           std::size_t max_leaf = 32, int max_depth = 24);

  /// Number of points inside `box` (inclusive boundary).
  std::size_t count_in_box(const geo::BBox& box) const;

  /// Ids of points inside `box`.
  std::vector<std::uint32_t> query_box(const geo::BBox& box) const;

  /// query_box into a caller-owned buffer: `out` is cleared and refilled
  /// with the same ids in the same order, keeping its capacity.
  void query_box_into(const geo::BBox& box,
                      std::vector<std::uint32_t>& out) const;

  const geo::BBox& bounds() const noexcept { return bounds_; }
  std::size_t size() const noexcept { return points_.size(); }
  const geo::Point& point(std::uint32_t id) const { return points_[id]; }

 private:
  struct Node {
    geo::BBox box;
    std::int32_t children[4] = {-1, -1, -1, -1};  ///< -1 = absent
    std::vector<std::uint32_t> ids;               ///< leaf payload
    std::size_t count = 0;                        ///< points in subtree
    bool exact = false;  ///< closed box holds exactly the subtree's points
    bool is_leaf() const noexcept { return children[0] < 0; }
  };

  std::int32_t build(const geo::BBox& box, std::vector<std::uint32_t> ids,
                     int depth);
  void mark_exact();
  void mark_inexact(std::int32_t node, geo::Point p, bool in_subtree);
  std::int32_t start_node(const geo::BBox& box) const;
  void count_rec(std::int32_t node, const geo::BBox& box,
                 std::size_t& acc) const;
  void query_rec(std::int32_t node, const geo::BBox& box,
                 std::vector<std::uint32_t>& out) const;
  static bool box_contains(const geo::BBox& outer, const geo::BBox& inner);
  static bool box_intersects(const geo::BBox& a, const geo::BBox& b);

  std::vector<geo::Point> points_;
  geo::BBox bounds_;
  std::size_t max_leaf_;
  int max_depth_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace poiprivacy::spatial
