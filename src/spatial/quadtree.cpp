#include "spatial/quadtree.h"

#include <utility>

namespace poiprivacy::spatial {

Quadtree::Quadtree(std::vector<geo::Point> points, geo::BBox bounds,
                   std::size_t max_leaf, int max_depth)
    : points_(std::move(points)),
      bounds_(bounds),
      max_leaf_(max_leaf),
      max_depth_(max_depth) {
  std::vector<std::uint32_t> ids(points_.size());
  for (std::uint32_t i = 0; i < points_.size(); ++i) ids[i] = i;
  root_ = build(bounds_, std::move(ids), 0);
  mark_exact();
}

std::int32_t Quadtree::build(const geo::BBox& box,
                             std::vector<std::uint32_t> ids, int depth) {
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({});
  nodes_[index].box = box;
  nodes_[index].count = ids.size();
  if (ids.size() <= max_leaf_ || depth >= max_depth_) {
    nodes_[index].ids = std::move(ids);
    return index;
  }
  const geo::Point c = box.center();
  const geo::BBox quads[4] = {
      {box.min_x, box.min_y, c.x, c.y},
      {c.x, box.min_y, box.max_x, c.y},
      {box.min_x, c.y, c.x, box.max_y},
      {c.x, c.y, box.max_x, box.max_y},
  };
  std::vector<std::uint32_t> parts[4];
  for (const std::uint32_t id : ids) {
    const geo::Point p = points_[id];
    // Assign boundary points to exactly one quadrant (left/bottom wins).
    const int qx = p.x < c.x ? 0 : 1;
    const int qy = p.y < c.y ? 0 : 1;
    parts[qy * 2 + qx].push_back(id);
  }
  ids.clear();
  ids.shrink_to_fit();
  for (int q = 0; q < 4; ++q) {
    // Recursive build may reallocate nodes_, so write via index afterwards.
    const std::int32_t child = build(quads[q], std::move(parts[q]), depth + 1);
    nodes_[index].children[q] = child;
  }
  return index;
}

void Quadtree::mark_exact() {
  // The rule relies on every split being strict, so that a cell's closed
  // box lies inside no box outside its own ancestor chain. Cells too thin
  // to split strictly leave every node inexact: queries then run the plain
  // recursion from the root.
  for (const Node& n : nodes_) {
    if (!(n.box.min_x < n.box.max_x && n.box.min_y < n.box.max_y)) return;
  }
  for (Node& n : nodes_) n.exact = true;
  for (const geo::Point& p : points_) mark_inexact(root_, p, true);
}

// Clears `exact` on each node at or below `node` whose closed box holds
// `p` while its subtree does not, or the other way round. Only the nodes
// on p's own path and the cells touching p along a split line are visited.
void Quadtree::mark_inexact(std::int32_t node, geo::Point p,
                            bool in_subtree) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  const bool in_box = n.box.contains(p);
  if (in_box != in_subtree) n.exact = false;
  if (n.is_leaf() || (!in_box && !in_subtree)) return;
  const geo::Point c = n.box.center();
  const int home = (p.y < c.y ? 0 : 2) + (p.x < c.x ? 0 : 1);
  for (int q = 0; q < 4; ++q) {
    mark_inexact(n.children[q], p, in_subtree && q == home);
  }
}

std::int32_t Quadtree::start_node(const geo::BBox& box) const {
  std::int32_t start = root_;
  std::int32_t node = root_;
  for (;;) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (!box_contains(n.box, box)) break;
    if (n.exact) start = node;
    if (n.is_leaf()) break;
    // Only the child holding the box's min corner can contain the box (a
    // zero-width box lying on a split line fits both sides; either will do).
    const geo::Point c = n.box.center();
    node = n.children[(box.min_y < c.y ? 0 : 2) + (box.min_x < c.x ? 0 : 1)];
  }
  return start;
}

bool Quadtree::box_contains(const geo::BBox& outer, const geo::BBox& inner) {
  return outer.min_x <= inner.min_x && outer.min_y <= inner.min_y &&
         outer.max_x >= inner.max_x && outer.max_y >= inner.max_y;
}

bool Quadtree::box_intersects(const geo::BBox& a, const geo::BBox& b) {
  return a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y &&
         b.min_y <= a.max_y;
}

void Quadtree::count_rec(std::int32_t node, const geo::BBox& box,
                         std::size_t& acc) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!box_intersects(box, n.box) || n.count == 0) return;
  if (box_contains(box, n.box)) {
    acc += n.count;
    return;
  }
  if (n.is_leaf()) {
    for (const std::uint32_t id : n.ids) {
      if (box.contains(points_[id])) ++acc;
    }
    return;
  }
  for (const std::int32_t child : n.children) count_rec(child, box, acc);
}

void Quadtree::query_rec(std::int32_t node, const geo::BBox& box,
                         std::vector<std::uint32_t>& out) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (!box_intersects(box, n.box) || n.count == 0) return;
  if (n.is_leaf()) {
    for (const std::uint32_t id : n.ids) {
      if (box.contains(points_[id])) out.push_back(id);
    }
    return;
  }
  for (const std::int32_t child : n.children) query_rec(child, box, out);
}

std::size_t Quadtree::count_in_box(const geo::BBox& box) const {
  std::size_t acc = 0;
  count_rec(start_node(box), box, acc);
  return acc;
}

std::vector<std::uint32_t> Quadtree::query_box(const geo::BBox& box) const {
  std::vector<std::uint32_t> out;
  query_box_into(box, out);
  return out;
}

void Quadtree::query_box_into(const geo::BBox& box,
                              std::vector<std::uint32_t>& out) const {
  out.clear();
  query_rec(start_node(box), box, out);
}

}  // namespace poiprivacy::spatial
