#include "defense/opt_defense.h"

#include "dp/discrete.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::defense {

poi::FrequencyVector postprocess_release(const poi::PoiDatabase& db,
                                         std::span<const double> base,
                                         double beta,
                                         std::int32_t max_injection) {
  return opt::greedy_release(base, db.infrequency_rank(), beta,
                             max_injection, db.rare_type_count());
}

poi::FrequencyVector OptimizationDefense::release(
    const poi::FrequencyVector& original) const {
  return postprocess_release(
      *db_, std::vector<double>(original.begin(), original.end()), beta_,
      max_injection_);
}

std::vector<double> DpDefense::noised_mean(geo::Point location, double r,
                                           common::Rng& rng) const {
  const std::vector<geo::Point> dummies =
      cloaker_->dummy_locations(location, config_.k, rng);
  // Shared per-thread scratch (see poi::scratch_arena): the k dummy
  // aggregates land in one reusable buffer, so steady-state releases
  // allocate nothing for the frequency queries. Consumed fully below,
  // before any other component can refill the arena.
  poi::FreqArena& arena = poi::scratch_arena();
  db_->freq_batch(dummies, r, arena);

  const std::size_t m = db_->num_types();
  // Row-major accumulation streams each arena row once. Per type, the
  // additions still happen in ascending dummy order, so the floating-point
  // sums (and hence the noise draws) are bit-identical to the old
  // column-major loop.
  std::vector<double> sum(m, 0.0);
  std::vector<double> sensitivity(m, 0.0);  // Delta_i = max_d F_d[i]
  for (std::size_t d = 0; d < arena.rows(); ++d) {
    const std::span<const std::int32_t> row = arena.row(d);
    for (std::size_t i = 0; i < m; ++i) {
      sum[i] += row[i];
      sensitivity[i] =
          std::max(sensitivity[i], static_cast<double>(row[i]));
    }
  }
  return noise_aggregate(sum, sensitivity, dummies.size(), config_, rng);
}

std::vector<double> noise_aggregate(std::span<const double> sum,
                                    std::span<const double> sensitivity,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    common::Rng& rng) {
  const bool gaussian = policy.noise == DpNoiseKind::kGaussian;
  // The Gaussian factor sqrt(2 ln(1.25/delta)) is hoisted out of the loop;
  // each sigma is still (factor * Delta_i) / eps, calibrated_sigma's
  // evaluation order, so every draw is bit-identical to calling it.
  double factor = 0.0;
  if (gaussian) {
    factor = dp::GaussianMechanism::delta_factor(
        {policy.epsilon, policy.delta});
  } else if (policy.epsilon <= 0.0) {
    throw std::invalid_argument("geometric mechanism: epsilon must be > 0");
  }
  const double kd = static_cast<double>(k);
  std::vector<double> mean(sum.size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    double noised = sum[i];
    if (sensitivity[i] > 0.0) {
      if (gaussian) {
        noised += rng.normal(0.0, factor * sensitivity[i] / policy.epsilon);
      } else {
        const dp::GeometricMechanism mech(
            policy.epsilon, static_cast<std::int64_t>(sensitivity[i]));
        noised = static_cast<double>(mech.perturb(
            static_cast<std::int64_t>(std::llround(noised)), rng));
      }
    }
    mean[i] = noised / kd;
  }
  return mean;
}

poi::FrequencyVector DpDefense::release(geo::Point location, double r,
                                        common::Rng& rng) const {
  return postprocess_release(*db_, noised_mean(location, r, rng),
                             config_.beta, config_.max_injection);
}

}  // namespace poiprivacy::defense
