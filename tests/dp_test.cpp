#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "dp/mechanisms.h"

namespace poiprivacy::dp {
namespace {

TEST(Laplace, RejectsInvalidParameters) {
  EXPECT_THROW(LaplaceMechanism(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(1.0, 0.0), std::invalid_argument);
}

TEST(Laplace, ScaleIsSensitivityOverEpsilon) {
  const LaplaceMechanism mech(0.5, 2.0);
  EXPECT_DOUBLE_EQ(mech.scale(), 4.0);
}

TEST(Laplace, NoiseIsCenteredWithCorrectVariance) {
  const LaplaceMechanism mech(1.0, 1.0);
  common::Rng rng(7);
  common::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(mech.perturb(10.0, rng));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.variance(), 2.0, 0.1);  // Var Laplace(1) = 2
}

TEST(Laplace, NoisedCountRoundsAndSaturates) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(dp::noised_count(2.4), 2);
  EXPECT_EQ(dp::noised_count(2.5), 3);  // half away from zero
  EXPECT_EQ(dp::noised_count(-0.4), 0);
  EXPECT_EQ(dp::noised_count(-7.0), 0);
  EXPECT_EQ(dp::noised_count(2147483646.4), kMax - 1);
  EXPECT_EQ(dp::noised_count(2147483646.5), kMax);
  EXPECT_EQ(dp::noised_count(2.33715e9), kMax);
  EXPECT_EQ(dp::noised_count(1e300), kMax);
  EXPECT_EQ(dp::noised_count(std::numeric_limits<double>::infinity()), kMax);
  EXPECT_EQ(dp::noised_count(-std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(dp::noised_count(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(Gaussian, CalibratedSigmaMatchesDefinitionTwo) {
  // sigma = sqrt(2 ln(1.25/delta)) * Delta / eps.
  const PrivacyParams params{1.0, 0.2};
  const double expected = std::sqrt(2.0 * std::log(1.25 / 0.2)) * 3.0 / 1.0;
  EXPECT_NEAR(GaussianMechanism::calibrated_sigma(params, 3.0), expected,
              1e-12);
}

TEST(Gaussian, SigmaShrinksWithEpsilon) {
  const double loose =
      GaussianMechanism::calibrated_sigma({2.0, 0.2}, 1.0);
  const double tight =
      GaussianMechanism::calibrated_sigma({0.2, 0.2}, 1.0);
  EXPECT_LT(loose, tight);
  EXPECT_NEAR(tight / loose, 10.0, 1e-9);
}

TEST(Gaussian, ZeroSensitivityAddsNoNoise) {
  const GaussianMechanism mech({1.0, 0.2}, 0.0);
  common::Rng rng(9);
  EXPECT_DOUBLE_EQ(mech.perturb(5.0, rng), 5.0);
}

TEST(Gaussian, RejectsInvalidParameters) {
  EXPECT_THROW(GaussianMechanism({0.0, 0.2}, 1.0), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism({1.0, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism({1.0, 1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(GaussianMechanism({1.0, 0.2}, -1.0), std::invalid_argument);
}

TEST(Gaussian, EmpiricalSigmaMatchesCalibration) {
  const GaussianMechanism mech({1.0, 0.2}, 2.0);
  common::Rng rng(11);
  common::RunningStats stats;
  for (int i = 0; i < 60000; ++i) stats.add(mech.perturb(0.0, rng));
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), mech.sigma(), mech.sigma() * 0.02);
}

TEST(PlanarLaplace, RejectsInvalidEpsilon) {
  EXPECT_THROW(PlanarLaplaceMechanism(0.0), std::invalid_argument);
  EXPECT_THROW(PlanarLaplaceMechanism::with_unit(1.0, 0.0),
               std::invalid_argument);
}

TEST(PlanarLaplace, MeanDisplacementIsTwoOverEpsilon) {
  // E[radius] for Gamma(2, eps) is 2/eps.
  const PlanarLaplaceMechanism mech(2.0);
  common::Rng rng(13);
  common::RunningStats radius;
  const geo::Point origin{0.0, 0.0};
  for (int i = 0; i < 40000; ++i) {
    radius.add(geo::distance(origin, mech.perturb(origin, rng)));
  }
  EXPECT_NEAR(radius.mean(), 1.0, 0.02);
}

TEST(PlanarLaplace, AngleIsUniform) {
  const PlanarLaplaceMechanism mech(1.0);
  common::Rng rng(17);
  int quadrant_counts[4] = {0, 0, 0, 0};
  const geo::Point origin{0.0, 0.0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const geo::Point p = mech.perturb(origin, rng);
    const int q = (p.x >= 0.0 ? 0 : 1) + (p.y >= 0.0 ? 0 : 2);
    ++quadrant_counts[q];
  }
  for (const int c : quadrant_counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.01);
  }
}

TEST(PlanarLaplace, WithUnitRescalesEpsilon) {
  // eps=0.1 with a 100 m unit equals eps_per_km = 1: mean displacement 2 km.
  const PlanarLaplaceMechanism mech =
      PlanarLaplaceMechanism::with_unit(0.1, 0.1);
  common::Rng rng(19);
  common::RunningStats radius;
  const geo::Point origin{0.0, 0.0};
  for (int i = 0; i < 40000; ++i) {
    radius.add(geo::distance(origin, mech.perturb(origin, rng)));
  }
  EXPECT_NEAR(radius.mean(), 2.0, 0.04);
}

TEST(PlanarLaplace, PerturbationIsTranslationInvariant) {
  const PlanarLaplaceMechanism mech(1.0);
  common::Rng rng_a(21);
  common::Rng rng_b(21);
  const geo::Point a = mech.perturb({0.0, 0.0}, rng_a);
  const geo::Point b = mech.perturb({5.0, -3.0}, rng_b);
  EXPECT_NEAR(b.x - a.x, 5.0, 1e-12);
  EXPECT_NEAR(b.y - a.y, -3.0, 1e-12);
}

// The defining geo-indistinguishability property, checked empirically on
// the radial density: P[radius <= t] = 1 - e^{-eps t}(1 + eps t).
TEST(PlanarLaplace, RadialCdfMatchesTheory) {
  const double eps = 1.5;
  const PlanarLaplaceMechanism mech(eps);
  common::Rng rng(23);
  const geo::Point origin{0.0, 0.0};
  const int n = 50000;
  std::vector<double> radii;
  radii.reserve(n);
  for (int i = 0; i < n; ++i) {
    radii.push_back(geo::distance(origin, mech.perturb(origin, rng)));
  }
  for (const double t : {0.5, 1.0, 2.0, 4.0}) {
    std::size_t below = 0;
    for (const double r : radii) below += r <= t;
    const double expected = 1.0 - std::exp(-eps * t) * (1.0 + eps * t);
    EXPECT_NEAR(static_cast<double>(below) / n, expected, 0.01)
        << "threshold " << t;
  }
}

}  // namespace
}  // namespace poiprivacy::dp
