#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/geometry.h"

namespace poiprivacy::geo {
namespace {

TEST(Point, ArithmeticAndDistance) {
  const Point a{1.0, 2.0};
  const Point b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq(a, b), 25.0);
  EXPECT_EQ((a + b), (Point{5.0, 8.0}));
  EXPECT_EQ((b - a), (Point{3.0, 4.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
}

TEST(BBox, ContainsAndClamp) {
  const BBox box{0.0, 0.0, 10.0, 5.0};
  EXPECT_TRUE(box.contains({5.0, 2.5}));
  EXPECT_TRUE(box.contains({0.0, 0.0}));   // inclusive boundary
  EXPECT_TRUE(box.contains({10.0, 5.0}));
  EXPECT_FALSE(box.contains({10.1, 2.0}));
  EXPECT_EQ(box.clamp({-1.0, 7.0}), (Point{0.0, 5.0}));
  EXPECT_EQ(box.clamp({3.0, 3.0}), (Point{3.0, 3.0}));
  EXPECT_DOUBLE_EQ(box.area(), 50.0);
  EXPECT_EQ(box.center(), (Point{5.0, 2.5}));
}

TEST(BBox, IntersectsDisk) {
  const BBox box{0.0, 0.0, 10.0, 10.0};
  EXPECT_TRUE(box.intersects_disk({5.0, 5.0}, 0.1));   // inside
  EXPECT_TRUE(box.intersects_disk({-1.0, 5.0}, 1.5));  // overlaps edge
  EXPECT_FALSE(box.intersects_disk({-5.0, 5.0}, 1.0));
  // Corner case: disk near a corner reaches only diagonally.
  EXPECT_TRUE(box.intersects_disk({11.0, 11.0}, 1.5));
  EXPECT_FALSE(box.intersects_disk({11.0, 11.0}, 1.0));
}

TEST(Circle, ContainsAndArea) {
  const Circle c{{0.0, 0.0}, 2.0};
  EXPECT_TRUE(c.contains({1.9, 0.0}));
  EXPECT_TRUE(c.contains({0.0, 2.0}));  // boundary inclusive
  EXPECT_FALSE(c.contains({1.5, 1.5}));
  EXPECT_DOUBLE_EQ(c.area(), M_PI * 4.0);
  EXPECT_DOUBLE_EQ(c.bbox().area(), 16.0);
}

TEST(DiskIntersection, DisjointIsZero) {
  const Circle a{{0.0, 0.0}, 1.0};
  const Circle b{{3.0, 0.0}, 1.0};
  EXPECT_DOUBLE_EQ(disk_intersection_area(a, b), 0.0);
}

TEST(DiskIntersection, ContainedIsSmallerDisk) {
  const Circle big{{0.0, 0.0}, 5.0};
  const Circle small{{1.0, 0.0}, 1.0};
  EXPECT_DOUBLE_EQ(disk_intersection_area(big, small), M_PI);
  EXPECT_DOUBLE_EQ(disk_intersection_area(small, big), M_PI);
}

TEST(DiskIntersection, IdenticalDisks) {
  const Circle a{{2.0, 3.0}, 1.5};
  EXPECT_DOUBLE_EQ(disk_intersection_area(a, a), M_PI * 2.25);
}

TEST(DiskIntersection, HalfOverlapKnownValue) {
  // Two unit disks at distance 1: lens area = 2 pi/3 - sqrt(3)/2.
  const Circle a{{0.0, 0.0}, 1.0};
  const Circle b{{1.0, 0.0}, 1.0};
  const double expected = 2.0 * M_PI / 3.0 - std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(disk_intersection_area(a, b), expected, 1e-12);
}

TEST(DisksIntersection, EmptySpanIsZero) {
  EXPECT_DOUBLE_EQ(disks_intersection_area({}), 0.0);
}

TEST(DisksIntersection, SingleDiskApproximatesItsArea) {
  const Circle c{{0.0, 0.0}, 2.0};
  const std::vector<Circle> disks{c};
  EXPECT_NEAR(disks_intersection_area(disks, 512), c.area(),
              c.area() * 0.01);
}

TEST(DisksIntersection, GridMatchesAnalyticTwoDiskFormula) {
  common::Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const Circle a{{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
                   rng.uniform(0.5, 2.0)};
    const Circle b{{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
                   rng.uniform(0.5, 2.0)};
    const double exact = disk_intersection_area(a, b);
    const std::vector<Circle> disks{a, b};
    const double grid = disks_intersection_area(disks, 512);
    EXPECT_NEAR(grid, exact, std::max(0.02, exact * 0.03))
        << "trial " << trial;
  }
}

TEST(DisksIntersection, MonotoneUnderAddingDisks) {
  common::Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Circle> disks;
    double prev = 1e18;
    for (int n = 0; n < 5; ++n) {
      disks.push_back({{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)},
                       rng.uniform(0.8, 1.5)});
      const double area = disks_intersection_area(disks, 256);
      EXPECT_LE(area, prev + 0.02);
      prev = area;
    }
  }
}

TEST(DisksIntersection, InAllDisksConsistent) {
  const std::vector<Circle> disks{{{0.0, 0.0}, 1.0}, {{1.0, 0.0}, 1.0}};
  EXPECT_TRUE(in_all_disks({0.5, 0.0}, disks));
  EXPECT_FALSE(in_all_disks({-0.5, 0.0}, disks));
  EXPECT_FALSE(in_all_disks({1.5, 0.0}, disks));
}

}  // namespace
}  // namespace poiprivacy::geo
