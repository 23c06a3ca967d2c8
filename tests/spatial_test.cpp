#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"

namespace poiprivacy::spatial {
namespace {

std::vector<geo::Point> random_points(std::size_t n, const geo::BBox& box,
                                      common::Rng& rng) {
  std::vector<geo::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(box.min_x, box.max_x),
                   rng.uniform(box.min_y, box.max_y)});
  }
  return pts;
}

std::set<std::uint32_t> brute_force_disk(const std::vector<geo::Point>& pts,
                                         geo::Point center, double r) {
  std::set<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (geo::distance_sq(pts[i], center) <= r * r) out.insert(i);
  }
  return out;
}

class GridIndexProperty : public ::testing::TestWithParam<double> {};

TEST_P(GridIndexProperty, MatchesBruteForceAtVariousCellSizes) {
  common::Rng rng(1234);
  const geo::BBox box{0.0, 0.0, 20.0, 15.0};
  const auto pts = random_points(800, box, rng);
  const GridIndex index(pts, box, GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const geo::Point c{rng.uniform(-2.0, 22.0), rng.uniform(-2.0, 17.0)};
    const double r = rng.uniform(0.1, 6.0);
    const auto got = index.query_disk(c, r);
    const std::set<std::uint32_t> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, brute_force_disk(pts, c, r))
        << "cell=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(got.size(), got_set.size()) << "duplicate ids returned";
    EXPECT_EQ(index.count_in_disk(c, r), got.size());
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, GridIndexProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 25.0));

TEST(GridIndex, EmptyIndexReturnsNothing) {
  const geo::BBox box{0.0, 0.0, 1.0, 1.0};
  const GridIndex index({}, box);
  EXPECT_TRUE(index.query_disk({0.5, 0.5}, 10.0).empty());
  EXPECT_EQ(index.count_in_disk({0.5, 0.5}, 10.0), 0u);
}

TEST(GridIndex, BoundaryPointIncluded) {
  const geo::BBox box{0.0, 0.0, 10.0, 10.0};
  const GridIndex index({{1.0, 1.0}, {2.0, 1.0}}, box);
  // Point exactly at distance r must be included.
  const auto got = index.query_disk({0.0, 1.0}, 1.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0u);
}

// A negative radius gives an inverted bounding square. Below the bounds
// both of its y edges clamp into row 0 while its x edges stay inverted by
// more than a cell, so the row-span scan must not walk from a later cell
// back to an earlier one.
TEST(GridIndex, NegativeRadiusIsEmpty) {
  const geo::BBox box{0.0, 0.0, 10.0, 10.0};
  const GridIndex index({{0.2, 0.2}, {1.0, 0.2}, {1.7, 0.3}}, box, 0.5);
  EXPECT_TRUE(index.query_disk({1.0, -5.0}, -0.6).empty());
  EXPECT_EQ(index.count_in_disk({1.0, -5.0}, -0.6), 0u);
  std::vector<std::int32_t> counts(1, 0);
  index.count_labels_in_disk({1.0, -5.0}, -0.6, counts);
  EXPECT_EQ(counts[0], 0);
}

TEST(GridIndex, QueryOutsideBoundsStillCorrect) {
  common::Rng rng(5);
  const geo::BBox box{0.0, 0.0, 10.0, 10.0};
  const auto pts = random_points(200, box, rng);
  const GridIndex index(pts, box, 1.0);
  const geo::Point far_center{50.0, 50.0};
  EXPECT_EQ(index.query_disk(far_center, 5.0).size(), 0u);
  const auto all = index.query_disk({5.0, 5.0}, 100.0);
  EXPECT_EQ(all.size(), pts.size());
}

TEST(Quadtree, CountMatchesBruteForce) {
  common::Rng rng(77);
  const geo::BBox box{0.0, 0.0, 16.0, 16.0};
  const auto pts = random_points(600, box, rng);
  const Quadtree tree(pts, box, 8);
  for (int trial = 0; trial < 50; ++trial) {
    geo::BBox q{rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0), 0.0, 0.0};
    q.max_x = q.min_x + rng.uniform(0.5, 6.0);
    q.max_y = q.min_y + rng.uniform(0.5, 6.0);
    std::size_t expected = 0;
    for (const geo::Point p : pts) {
      if (q.contains(p)) ++expected;
    }
    EXPECT_EQ(tree.count_in_box(q), expected) << "trial " << trial;
    EXPECT_EQ(tree.query_box(q).size(), expected);
  }
}

TEST(Quadtree, FullBoundsCountsEverything) {
  common::Rng rng(79);
  const geo::BBox box{0.0, 0.0, 8.0, 8.0};
  const auto pts = random_points(300, box, rng);
  const Quadtree tree(pts, box);
  EXPECT_EQ(tree.count_in_box(box), pts.size());
}

TEST(Quadtree, EmptyTree) {
  const geo::BBox box{0.0, 0.0, 4.0, 4.0};
  const Quadtree tree({}, box);
  EXPECT_EQ(tree.count_in_box(box), 0u);
  EXPECT_TRUE(tree.query_box(box).empty());
}

TEST(Quadtree, DuplicatePointsDoNotRecurseForever) {
  // 100 identical points would never split apart; max_depth must stop it.
  const geo::BBox box{0.0, 0.0, 4.0, 4.0};
  std::vector<geo::Point> pts(100, geo::Point{1.0, 1.0});
  const Quadtree tree(pts, box, 4);
  EXPECT_EQ(tree.count_in_box({0.9, 0.9, 1.1, 1.1}), 100u);
}

TEST(KdTree, NearestMatchesBruteForce) {
  common::Rng rng(31);
  const geo::BBox box{0.0, 0.0, 10.0, 10.0};
  const auto pts = random_points(400, box, rng);
  const KdTree tree(pts);
  for (int trial = 0; trial < 60; ++trial) {
    const geo::Point q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    const auto got = tree.nearest(q);
    ASSERT_TRUE(got.has_value());
    double best = 1e18;
    for (const geo::Point p : pts) best = std::min(best, distance_sq(p, q));
    EXPECT_DOUBLE_EQ(geo::distance_sq(pts[*got], q), best);
  }
}

TEST(KdTree, KNearestSortedAndMatchesBruteForce) {
  common::Rng rng(33);
  const geo::BBox box{0.0, 0.0, 10.0, 10.0};
  const auto pts = random_points(200, box, rng);
  const KdTree tree(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point q{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    const auto got = tree.k_nearest(q, 7);
    ASSERT_EQ(got.size(), 7u);
    // Sorted by distance.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(geo::distance_sq(pts[got[i - 1]], q),
                geo::distance_sq(pts[got[i]], q));
    }
    // Matches brute-force top-k set.
    std::vector<std::uint32_t> ids(pts.size());
    for (std::uint32_t i = 0; i < pts.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
      return geo::distance_sq(pts[a], q) < geo::distance_sq(pts[b], q);
    });
    EXPECT_DOUBLE_EQ(geo::distance_sq(pts[got.back()], q),
                     geo::distance_sq(pts[ids[6]], q));
  }
}

TEST(KdTree, EmptyTreeReturnsNullopt) {
  const KdTree tree({});
  EXPECT_FALSE(tree.nearest({0.0, 0.0}).has_value());
  EXPECT_TRUE(tree.k_nearest({0.0, 0.0}, 3).empty());
}

TEST(KdTree, KLargerThanSizeReturnsAll) {
  const KdTree tree({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  EXPECT_EQ(tree.k_nearest({0.0, 0.0}, 10).size(), 3u);
}

}  // namespace
}  // namespace poiprivacy::spatial
