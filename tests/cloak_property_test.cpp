// Oracle property test for the quadtree's exact-node shortcut: count_in_box,
// query_box (ids in order), AdaptiveIntervalCloaker::cloak and both dummy
// draws must match a frozen copy of the root-started recursion and cloak
// loop, bit for bit. 200 seeded cases cover uniform, dyadic-grid (points on
// split lines and on the city edge), heavily duplicated, partly out-of-
// bounds and empty populations over random tree shapes; case i is
// reproducible in isolation via Rng::substream.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "cloak/kcloak.h"
#include "common/rng.h"
#include "geo/geometry.h"
#include "spatial/quadtree.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kCases = 200;
constexpr geo::BBox kBounds{0.0, 0.0, 16.0, 12.0};

/// The quadtree as it was before the exact-node shortcut: every query
/// recurses from the root.
class OracleQuadtree {
 public:
  OracleQuadtree(std::vector<geo::Point> points, geo::BBox bounds,
                 std::size_t max_leaf = 32, int max_depth = 24)
      : points_(std::move(points)), max_leaf_(max_leaf), max_depth_(max_depth) {
    std::vector<std::uint32_t> ids(points_.size());
    for (std::uint32_t i = 0; i < points_.size(); ++i) ids[i] = i;
    build(bounds, std::move(ids), 0);
  }

  std::size_t count_in_box(const geo::BBox& box) const {
    std::size_t acc = 0;
    count_rec(0, box, acc);
    return acc;
  }

  std::vector<std::uint32_t> query_box(const geo::BBox& box) const {
    std::vector<std::uint32_t> out;
    query_rec(0, box, out);
    return out;
  }

  const geo::Point& point(std::uint32_t id) const { return points_[id]; }

 private:
  struct Node {
    geo::BBox box;
    std::int32_t children[4] = {-1, -1, -1, -1};
    std::vector<std::uint32_t> ids;
    std::size_t count = 0;
    bool is_leaf() const noexcept { return children[0] < 0; }
  };

  std::int32_t build(const geo::BBox& box, std::vector<std::uint32_t> ids,
                     int depth) {
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
      parts[(p.y < c.y ? 0 : 2) + (p.x < c.x ? 0 : 1)].push_back(id);
    }
    for (int q = 0; q < 4; ++q) {
      const std::int32_t child = build(quads[q], std::move(parts[q]), depth + 1);
      nodes_[index].children[q] = child;
    }
    return index;
  }

  static bool box_contains(const geo::BBox& outer, const geo::BBox& inner) {
    return outer.min_x <= inner.min_x && outer.min_y <= inner.min_y &&
           outer.max_x >= inner.max_x && outer.max_y >= inner.max_y;
  }

  static bool box_intersects(const geo::BBox& a, const geo::BBox& b) {
    return a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y &&
           b.min_y <= a.max_y;
  }

  void count_rec(std::int32_t node, const geo::BBox& box,
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

  void query_rec(std::int32_t node, const geo::BBox& box,
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

  std::vector<geo::Point> points_;
  std::size_t max_leaf_;
  int max_depth_;
  std::vector<Node> nodes_;
};

/// The cloak loop and the dummy draws as they were, over the oracle tree.
class OracleCloaker {
 public:
  OracleCloaker(std::vector<geo::Point> users, geo::BBox bounds)
      : bounds_(bounds), tree_(std::move(users), bounds) {}

  cloak::CloakResult cloak(geo::Point target, std::size_t k) const {
    geo::BBox current = bounds_;
    int depth = 0;
    while (depth < 20) {
      const geo::Point c = current.center();
      const geo::BBox quadrant{
          target.x < c.x ? current.min_x : c.x,
          target.y < c.y ? current.min_y : c.y,
          target.x < c.x ? c.x : current.max_x,
          target.y < c.y ? c.y : current.max_y,
      };
      if (tree_.count_in_box(quadrant) + 1 < k) break;
      current = quadrant;
      ++depth;
    }
    return {current, tree_.count_in_box(current), depth};
  }

  std::vector<geo::Point> dummy_locations(geo::Point target, std::size_t k,
                                          common::Rng& rng) const {
    std::vector<geo::Point> out;
    if (k == 0) return out;
    out.push_back(target);
    append_region_draws(out, cloak(target, k).region, k, rng);
    return out;
  }

  std::vector<geo::Point> region_dummy_locations(const geo::BBox& region,
                                                 std::size_t k,
                                                 common::Rng& rng) const {
    std::vector<geo::Point> out;
    append_region_draws(out, region, k, rng);
    return out;
  }

 private:
  void append_region_draws(std::vector<geo::Point>& out,
                           const geo::BBox& region, std::size_t k,
                           common::Rng& rng) const {
    std::vector<std::uint32_t> ids = tree_.query_box(region);
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

  geo::BBox bounds_;
  OracleQuadtree tree_;
};

using Bits = std::vector<std::uint64_t>;

Bits bits(const geo::BBox& b) {
  return {std::bit_cast<std::uint64_t>(b.min_x),
          std::bit_cast<std::uint64_t>(b.min_y),
          std::bit_cast<std::uint64_t>(b.max_x),
          std::bit_cast<std::uint64_t>(b.max_y)};
}

Bits bits(const std::vector<geo::Point>& points) {
  Bits out;
  for (const geo::Point& p : points) {
    out.push_back(std::bit_cast<std::uint64_t>(p.x));
    out.push_back(std::bit_cast<std::uint64_t>(p.y));
  }
  return out;
}

std::size_t pick(common::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// A point on a dyadic grid over kBounds, edges included, so it sits on
/// the tree's split lines (every cell edge is such a grid line).
geo::Point dyadic_point(common::Rng& rng) {
  const double cells = static_cast<double>(1 << rng.uniform_int(0, 5));
  const auto at = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng.uniform_int(
                                0, static_cast<std::int64_t>(cells))) /
                    cells;
  };
  return {at(kBounds.min_x, kBounds.max_x), at(kBounds.min_y, kBounds.max_y)};
}

geo::Point uniform_point(common::Rng& rng) {
  return {rng.uniform(kBounds.min_x, kBounds.max_x),
          rng.uniform(kBounds.min_y, kBounds.max_y)};
}

/// A point in the margin around kBounds, never inside it.
geo::Point outside_point(common::Rng& rng) {
  geo::Point p{rng.uniform(kBounds.min_x - 4.0, kBounds.max_x + 4.0),
               rng.uniform(kBounds.min_y - 4.0, kBounds.max_y + 4.0)};
  if (kBounds.contains(p)) {
    p.x = rng.bernoulli(0.5) ? kBounds.min_x - 0.5 : kBounds.max_x + 0.5;
  }
  return p;
}

/// Case c's population: uniform, dyadic grid, heavy duplicates, a few
/// points outside the bounds, or empty (cycling with c).
std::vector<geo::Point> population(common::Rng& rng, std::size_t c,
                                   std::size_t max_n) {
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_n)));
  std::vector<geo::Point> points;
  switch (c % 5) {
    case 0:
      for (std::size_t i = 0; i < n; ++i) points.push_back(uniform_point(rng));
      break;
    case 1:
      for (std::size_t i = 0; i < n; ++i) points.push_back(dyadic_point(rng));
      break;
    case 2: {
      std::vector<geo::Point> sites;
      const auto m = static_cast<std::size_t>(rng.uniform_int(1, 4));
      for (std::size_t i = 0; i < m; ++i) {
        sites.push_back(rng.bernoulli(0.5) ? dyadic_point(rng)
                                           : uniform_point(rng));
      }
      for (std::size_t i = 0; i < n; ++i) {
        points.push_back(sites[pick(rng, sites.size())]);
      }
      break;
    }
    case 3:
      for (std::size_t i = 0; i < n; ++i) {
        points.push_back(rng.bernoulli(0.05) ? outside_point(rng)
                                             : uniform_point(rng));
      }
      points.push_back(outside_point(rng));
      break;
    default:
      break;
  }
  return points;
}

/// A tree cell (a cloak quadrant) built by the same center splits the
/// tree uses, so its bounds are bit-identical to a node's box.
geo::BBox random_cell(common::Rng& rng) {
  geo::BBox box = kBounds;
  for (auto d = rng.uniform_int(0, 12); d > 0; --d) {
    const geo::Point c = box.center();
    (rng.bernoulli(0.5) ? box.min_x : box.max_x) = c.x;
    (rng.bernoulli(0.5) ? box.min_y : box.max_y) = c.y;
  }
  return box;
}

/// A box whose two corners are uniform in `range`.
geo::BBox box_in(common::Rng& rng, const geo::BBox& range) {
  const double x0 = rng.uniform(range.min_x, range.max_x);
  const double x1 = rng.uniform(range.min_x, range.max_x);
  const double y0 = rng.uniform(range.min_y, range.max_y);
  const double y1 = rng.uniform(range.min_y, range.max_y);
  return {std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
          std::max(y0, y1)};
}

/// A cloak quadrant, an unaligned box inside a cell (the descent starts
/// below the root), or a box that may reach past the bounds.
geo::BBox random_query(common::Rng& rng) {
  constexpr geo::BBox kMargin{kBounds.min_x - 2.0, kBounds.min_y - 2.0,
                              kBounds.max_x + 2.0, kBounds.max_y + 2.0};
  switch (rng.uniform_int(0, 2)) {
    case 0: return random_cell(rng);
    case 1: return box_in(rng, random_cell(rng));
    default: return box_in(rng, kMargin);
  }
}

geo::Point random_target(common::Rng& rng,
                         const std::vector<geo::Point>& users) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return uniform_point(rng);
    case 1: return dyadic_point(rng);
    case 2: return users.empty() ? outside_point(rng)
                                 : users[pick(rng, users.size())];
    default: return outside_point(rng);
  }
}

TEST(CloakProperty, QuadtreeQueriesMatchRootRecursion) {
  const common::Rng base(0xC10A4001u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points = population(rng, c, 400);
    const auto max_leaf = static_cast<std::size_t>(rng.uniform_int(1, 32));
    const auto max_depth = static_cast<int>(rng.uniform_int(0, 24));
    const spatial::Quadtree tree(points, kBounds, max_leaf, max_depth);
    const OracleQuadtree oracle(points, kBounds, max_leaf, max_depth);
    for (int q = 0; q < 24; ++q) {
      const geo::BBox box = random_query(rng);
      EXPECT_EQ(tree.count_in_box(box), oracle.count_in_box(box))
          << "case " << c << " query " << q;
      EXPECT_EQ(tree.query_box(box), oracle.query_box(box))
          << "case " << c << " query " << q;
    }
  }
}

TEST(CloakProperty, CloakMatchesFrozenLoopForEveryK) {
  const common::Rng base(0xC10A4002u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto users = population(rng, c, 160);
    const cloak::AdaptiveIntervalCloaker cloaker(users, kBounds);
    const OracleCloaker oracle(users, kBounds);
    ASSERT_EQ(cloaker.num_users(), users.size());
    for (int t = 0; t < 4; ++t) {
      const geo::Point target = random_target(rng, users);
      for (std::size_t k = 0; k <= users.size() + 2; ++k) {
        const cloak::CloakResult got = cloaker.cloak(target, k);
        const cloak::CloakResult want = oracle.cloak(target, k);
        ASSERT_EQ(bits(got.region), bits(want.region))
            << "case " << c << " target " << t << " k " << k;
        ASSERT_EQ(got.users_inside, want.users_inside)
            << "case " << c << " target " << t << " k " << k;
        ASSERT_EQ(got.depth, want.depth)
            << "case " << c << " target " << t << " k " << k;
      }
    }
  }
}

TEST(CloakProperty, DummyDrawsMatchFrozenOracle) {
  const common::Rng base(0xC10A4003u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto users = population(rng, c, 400);
    const cloak::AdaptiveIntervalCloaker cloaker(users, kBounds);
    const OracleCloaker oracle(users, kBounds);
    for (int q = 0; q < 6; ++q) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(users.size()) + 3));
      const geo::Point target = random_target(rng, users);
      const geo::BBox region =
          rng.bernoulli(0.5) ? cloaker.cloak(target, k).region
                             : random_query(rng);
      common::Rng a = rng.fork();
      common::Rng b = a;
      EXPECT_EQ(bits(cloaker.region_dummy_locations(region, k, a)),
                bits(oracle.region_dummy_locations(region, k, b)))
          << "case " << c << " draw " << q;
      EXPECT_EQ(bits(cloaker.dummy_locations(target, k, a)),
                bits(oracle.dummy_locations(target, k, b)))
          << "case " << c << " draw " << q;
      EXPECT_EQ(a(), b()) << "case " << c << " draw " << q;
    }
  }
}

TEST(CloakProperty, ZeroWidthBoundsMatchRootRecursion) {
  // Cells of a zero-width city overlap their neighbours, so no node may
  // take the shortcut; out-of-bounds points would expose one that did.
  constexpr geo::BBox kLine{4.0, 0.0, 4.0, 12.0};
  const common::Rng base(0xC10A4004u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    std::vector<geo::Point> points;
    for (auto n = rng.uniform_int(0, 60); n > 0; --n) {
      points.push_back(rng.bernoulli(0.2) ? outside_point(rng)
                                          : geo::Point{4.0, dyadic_point(rng).y});
    }
    const auto max_leaf = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const spatial::Quadtree tree(points, kLine, max_leaf, 6);
    const OracleQuadtree oracle(points, kLine, max_leaf, 6);
    for (int q = 0; q < 12; ++q) {
      geo::BBox box = random_query(rng);
      if (rng.bernoulli(0.5)) box.min_x = box.max_x = 4.0;
      EXPECT_EQ(tree.count_in_box(box), oracle.count_in_box(box))
          << "case " << c << " query " << q;
      EXPECT_EQ(tree.query_box(box), oracle.query_box(box))
          << "case " << c << " query " << q;
    }
  }
}

}  // namespace
}  // namespace poiprivacy
