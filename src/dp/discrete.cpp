#include "dp/discrete.h"

#include <cmath>
#include <stdexcept>

namespace poiprivacy::dp {

GeometricMechanism::GeometricMechanism(double epsilon,
                                       std::int64_t sensitivity) {
  if (epsilon <= 0.0 || sensitivity <= 0) {
    throw std::invalid_argument(
        "geometric mechanism: epsilon and sensitivity must be > 0");
  }
  alpha_ = std::exp(-epsilon / static_cast<double>(sensitivity));
}

std::int64_t GeometricMechanism::perturb(std::int64_t value,
                                         common::Rng& rng) const {
  // The difference of two iid geometric(1 - alpha) variables on {0,1,...}
  // is exactly the two-sided geometric (discrete Laplace) distribution
  // P[X = k] proportional to alpha^|k|.
  const auto geometric = [this, &rng] {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    return static_cast<std::int64_t>(std::floor(std::log(u) /
                                                std::log(alpha_)));
  };
  return value + geometric() - geometric();
}

}  // namespace poiprivacy::dp
