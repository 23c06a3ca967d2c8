#include "dp/mechanisms.h"

#include <cmath>
#include <stdexcept>

namespace poiprivacy::dp {

LaplaceMechanism::LaplaceMechanism(double epsilon, double sensitivity) {
  if (epsilon <= 0.0 || sensitivity <= 0.0) {
    throw std::invalid_argument("laplace: epsilon and sensitivity must be > 0");
  }
  scale_ = sensitivity / epsilon;
}

double LaplaceMechanism::perturb(double value, common::Rng& rng) const {
  return value + rng.laplace(scale_);
}

double GaussianMechanism::delta_factor(PrivacyParams params) {
  if (params.epsilon <= 0.0 || params.delta <= 0.0 || params.delta >= 1.0) {
    throw std::invalid_argument(
        "gaussian: requires epsilon > 0 and delta in (0, 1)");
  }
  return std::sqrt(2.0 * std::log(1.25 / params.delta));
}

double GaussianMechanism::calibrated_sigma(PrivacyParams params,
                                           double sensitivity) {
  const double factor = delta_factor(params);
  if (sensitivity < 0.0) {
    throw std::invalid_argument("gaussian: sensitivity must be >= 0");
  }
  return factor * sensitivity / params.epsilon;
}

GaussianMechanism::GaussianMechanism(PrivacyParams params, double sensitivity)
    : sigma_(calibrated_sigma(params, sensitivity)) {}

double GaussianMechanism::perturb(double value, common::Rng& rng) const {
  return sigma_ > 0.0 ? value + rng.normal(0.0, sigma_) : value;
}

PlanarLaplaceMechanism::PlanarLaplaceMechanism(double epsilon_per_km)
    : epsilon_per_km_(epsilon_per_km) {
  if (epsilon_per_km <= 0.0) {
    throw std::invalid_argument("planar laplace: epsilon must be > 0");
  }
}

PlanarLaplaceMechanism PlanarLaplaceMechanism::with_unit(double epsilon,
                                                         double unit_km) {
  if (unit_km <= 0.0) {
    throw std::invalid_argument("planar laplace: unit must be > 0");
  }
  return PlanarLaplaceMechanism(epsilon / unit_km);
}

geo::Point PlanarLaplaceMechanism::perturb(geo::Point location,
                                           common::Rng& rng) const {
  // Radius of the 2-D Laplace density eps^2/(2 pi) exp(-eps r) follows
  // Gamma(shape 2, rate eps); the angle is uniform.
  const double radius = rng.gamma2(epsilon_per_km_);
  const double theta = rng.uniform(0.0, 2.0 * M_PI);
  return {location.x + radius * std::cos(theta),
          location.y + radius * std::sin(theta)};
}

}  // namespace poiprivacy::dp
