// GeometricMechanism — two-sided geometric (discrete Laplace) noise for
// integer counts, the natural DP primitive for frequency vectors (the
// pure eps-DP noise kind of the DP defense, defense/opt_defense).
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace poiprivacy::dp {

class GeometricMechanism {
 public:
  /// eps-DP for integer-valued queries with the given L1 sensitivity.
  GeometricMechanism(double epsilon, std::int64_t sensitivity);

  /// value + two-sided geometric noise with parameter
  /// alpha = exp(-eps / sensitivity).
  std::int64_t perturb(std::int64_t value, common::Rng& rng) const;

  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
};

}  // namespace poiprivacy::dp
