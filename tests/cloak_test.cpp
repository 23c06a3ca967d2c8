#include <gtest/gtest.h>

#include "cloak/kcloak.h"
#include "common/rng.h"

namespace poiprivacy::cloak {
namespace {

AdaptiveIntervalCloaker make_cloaker(std::size_t users, std::uint64_t seed,
                                     geo::BBox bounds = {0.0, 0.0, 16.0,
                                                         16.0}) {
  common::Rng rng(seed);
  return AdaptiveIntervalCloaker(uniform_population(bounds, users, rng),
                                 bounds);
}

TEST(UniformPopulation, StaysInBounds) {
  common::Rng rng(3);
  const geo::BBox bounds{2.0, 3.0, 10.0, 8.0};
  const auto users = uniform_population(bounds, 500, rng);
  EXPECT_EQ(users.size(), 500u);
  for (const geo::Point u : users) EXPECT_TRUE(bounds.contains(u));
}

TEST(Cloak, RegionAlwaysContainsTarget) {
  const auto cloaker = make_cloaker(2000, 7);
  common::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    for (const std::size_t k : {2u, 10u, 50u}) {
      const CloakResult result = cloaker.cloak(target, k);
      EXPECT_TRUE(result.region.contains(target))
          << "k=" << k << " trial=" << trial;
    }
  }
}

TEST(Cloak, RegionSatisfiesKAnonymity) {
  const auto cloaker = make_cloaker(2000, 13);
  common::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    for (const std::size_t k : {2u, 10u, 30u}) {
      const CloakResult result = cloaker.cloak(target, k);
      // Region users + the requester must reach k.
      EXPECT_GE(result.users_inside + 1, k);
    }
  }
}

TEST(Cloak, RegionGrowsWithK) {
  const auto cloaker = make_cloaker(3000, 19);
  common::Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    double prev_area = 0.0;
    for (const std::size_t k : {2u, 10u, 30u, 100u}) {
      const double area = cloaker.cloak(target, k).region.area();
      EXPECT_GE(area, prev_area);
      prev_area = area;
    }
  }
}

TEST(Cloak, ImpossibleKReturnsWholeCity) {
  const auto cloaker = make_cloaker(50, 29);
  const CloakResult result = cloaker.cloak({8.0, 8.0}, 10000);
  EXPECT_DOUBLE_EQ(result.region.area(), cloaker.bounds().area());
  EXPECT_EQ(result.depth, 0);
}

TEST(Cloak, TrivialKDescendsDeep) {
  const auto cloaker = make_cloaker(1000, 31);
  const CloakResult result = cloaker.cloak({8.0, 8.0}, 1);
  EXPECT_GT(result.depth, 3);
  EXPECT_LT(result.region.area(), 1.0);
}

TEST(Dummies, CorrectCountAndContainment) {
  const auto cloaker = make_cloaker(2000, 37);
  common::Rng rng(41);
  const geo::Point target{5.0, 5.0};
  const auto dummies = cloaker.dummy_locations(target, 20, rng);
  ASSERT_EQ(dummies.size(), 20u);
  EXPECT_EQ(dummies.front(), target);
  const CloakResult cloaked = cloaker.cloak(target, 20);
  for (const geo::Point d : dummies) {
    EXPECT_TRUE(cloaked.region.contains(d));
  }
}

TEST(Dummies, SparsePopulationToppedUpWithSynthetic) {
  const auto cloaker = make_cloaker(5, 43);
  common::Rng rng(47);
  const auto dummies = cloaker.dummy_locations({8.0, 8.0}, 25, rng);
  EXPECT_EQ(dummies.size(), 25u);
  for (const geo::Point d : dummies) {
    EXPECT_TRUE(cloaker.bounds().contains(d));
  }
}

TEST(Dummies, ZeroKGivesEmpty) {
  const auto cloaker = make_cloaker(100, 53);
  common::Rng rng(59);
  EXPECT_TRUE(cloaker.dummy_locations({1.0, 1.0}, 0, rng).empty());
}

class CloakKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CloakKSweep, DepthDecreasesWithK) {
  const auto cloaker = make_cloaker(4000, 61);
  common::Rng rng(67);
  // Averaged over targets, larger k must not cloak deeper.
  double mean_depth = 0.0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const geo::Point target{rng.uniform(0.0, 16.0), rng.uniform(0.0, 16.0)};
    mean_depth += cloaker.cloak(target, GetParam()).depth;
  }
  mean_depth /= trials;
  // With 4000 users over 256 km^2 a k of 2 should cloak much deeper than
  // k of 200; spot-check monotonic envelope via bounds per k.
  if (GetParam() <= 2) {
    EXPECT_GT(mean_depth, 3.0);
  }
  if (GetParam() >= 200) {
    EXPECT_LT(mean_depth, 6.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, CloakKSweep,
                         ::testing::Values(2u, 10u, 50u, 200u));

}  // namespace
}  // namespace poiprivacy::cloak
