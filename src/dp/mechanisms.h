// Differential-privacy mechanisms.
//
//   * LaplaceMechanism       — classic eps-DP additive noise (for ablation).
//   * GaussianMechanism      — (eps, delta)-DP calibrated per the paper's
//     Definition 2: sigma >= sqrt(2 ln(1.25/delta)) * Delta / eps.
//   * PlanarLaplaceMechanism — geo-indistinguishability (Andres et al.,
//     CCS'13): perturbs a 2-D location with density proportional to
//     exp(-eps * dist(l, l')). The radial component is Gamma(2, eps), the
//     angle uniform.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "geo/geometry.h"

namespace poiprivacy::dp {

/// Privacy parameters for (eps, delta)-DP.
struct PrivacyParams {
  double epsilon = 1.0;
  double delta = 0.0;
};

class LaplaceMechanism {
 public:
  /// `sensitivity` is the L1 sensitivity of the protected function.
  LaplaceMechanism(double epsilon, double sensitivity);

  double perturb(double value, common::Rng& rng) const;
  double scale() const noexcept { return scale_; }

 private:
  double scale_;
};

/// A Laplace-noised count as a release entry: rounded half away from
/// zero and saturated to [0, INT32_MAX] (NaN gives 0). A tiny epsilon
/// makes the Laplace scale huge (4e9 at eps = 1e-9, sensitivity 4), so a
/// draw can leave int32, where a plain cast is undefined.
inline std::int32_t noised_count(double noised) noexcept {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const double rounded = std::round(noised);
  if (!(rounded > 0.0)) return 0;
  if (rounded >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::int32_t>(rounded);
}

class GaussianMechanism {
 public:
  /// `sensitivity` is the L2 sensitivity; requires delta in (0, 1).
  GaussianMechanism(PrivacyParams params, double sensitivity);

  double perturb(double value, common::Rng& rng) const;

  /// The calibrated noise standard deviation.
  double sigma() const noexcept { return sigma_; }

  /// sigma for the given parameters without constructing a mechanism:
  /// (delta_factor(params) * sensitivity) / epsilon.
  static double calibrated_sigma(PrivacyParams params, double sensitivity);

  /// sqrt(2 ln(1.25 / delta)), the sensitivity-free part of sigma, so a
  /// caller calibrating many sensitivities validates and computes it once.
  /// Throws unless epsilon > 0 and delta in (0, 1).
  static double delta_factor(PrivacyParams params);

 private:
  double sigma_;
};

class PlanarLaplaceMechanism {
 public:
  /// `epsilon_per_km` is the geo-ind privacy parameter expressed per km.
  /// The paper's experiments use a 100 m distance unit, so its eps = 0.1
  /// corresponds to epsilon_per_km = 1.0 here (eps per unit / unit in km).
  explicit PlanarLaplaceMechanism(double epsilon_per_km);

  geo::Point perturb(geo::Point location, common::Rng& rng) const;

  /// Helper converting the paper's parameterisation (eps per `unit_km`).
  static PlanarLaplaceMechanism with_unit(double epsilon, double unit_km);

 private:
  double epsilon_per_km_;
};

}  // namespace poiprivacy::dp
