#include "defense/opt_defense.h"

#include "dp/discrete.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::defense {

namespace {

/// The one Eq. (8) noising loop behind noise_aggregate and
/// noised_release: visits the n types type_at(0) < type_at(1) < ... and
/// hands emit(j, mean) each one's noised mean. The Gaussian factor
/// sqrt(2 ln(1.25/delta)) is hoisted out of the loop; each sigma is still
/// (factor * Delta_i) / eps, calibrated_sigma's evaluation order, so every
/// draw is bit-identical to calling it.
template <typename TypeAt, typename Emit>
void noise_types(std::size_t n, TypeAt type_at, std::span<const double> sum,
                 std::span<const double> sensitivity, std::size_t k,
                 const DpDefenseConfig& policy, common::Rng& rng,
                 Emit emit) {
  const bool gaussian = policy.noise == DpNoiseKind::kGaussian;
  double factor = 0.0;
  if (gaussian) {
    factor = dp::GaussianMechanism::delta_factor(
        {policy.epsilon, policy.delta});
  } else if (policy.epsilon <= 0.0) {
    throw std::invalid_argument("geometric mechanism: epsilon must be > 0");
  }
  const double kd = static_cast<double>(k);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = type_at(j);
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
    emit(j, noised / kd);
  }
}

}  // namespace

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

void aggregate_dummies(const poi::PoiDatabase& db,
                       std::span<const geo::Point> dummies, double r,
                       std::vector<double>& sum,
                       std::vector<double>& sensitivity,
                       std::vector<poi::TypeId>& support) {
  // Per-thread int32 folds and support buffer: the support is copied out
  // once at its final size.
  thread_local poi::FrequencyVector count_sum;
  thread_local poi::FrequencyVector count_max;
  thread_local std::vector<poi::TypeId> present;
  db.freq_sum_max(dummies, r, count_sum, count_max);
  const std::size_t m = count_sum.size();
  sum.resize(m);
  sensitivity.resize(m);
  present.resize(m);
  std::size_t n = 0;
  for (std::size_t i = 0; i < m; ++i) {
    sum[i] = static_cast<double>(count_sum[i]);
    sensitivity[i] = static_cast<double>(count_max[i]);
    present[n] = static_cast<poi::TypeId>(i);
    n += count_sum[i] != 0;
  }
  support.assign(present.begin(),
                 present.begin() + static_cast<std::ptrdiff_t>(n));
}

std::size_t DpDefense::dummy_aggregate(
    geo::Point location, double r, common::Rng& rng, std::vector<double>& sum,
    std::vector<double>& sensitivity,
    std::vector<poi::TypeId>& support) const {
  const std::vector<geo::Point> dummies =
      cloaker_->dummy_locations(location, config_.k, rng);
  aggregate_dummies(*db_, dummies, r, sum, sensitivity, support);
  return dummies.size();
}

std::vector<double> DpDefense::noised_mean(geo::Point location, double r,
                                           common::Rng& rng) const {
  std::vector<double> sum;
  std::vector<double> sensitivity;
  std::vector<poi::TypeId> support;
  const std::size_t k =
      dummy_aggregate(location, r, rng, sum, sensitivity, support);
  return noise_aggregate(sum, sensitivity, k, config_, rng);
}

std::vector<double> noise_aggregate(std::span<const double> sum,
                                    std::span<const double> sensitivity,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    common::Rng& rng) {
  std::vector<double> mean(sum.size());
  noise_types(
      sum.size(), [](std::size_t j) { return j; }, sum, sensitivity, k,
      policy, rng, [&mean](std::size_t j, double v) { mean[j] = v; });
  return mean;
}

poi::FrequencyVector noised_release(std::span<const double> sum,
                                    std::span<const double> sensitivity,
                                    std::span<const poi::TypeId> support,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    std::span<const int> rank, int max_rank,
                                    common::Rng& rng) {
  // Per-thread buffer for the support's noised means (the
  // poi::scratch_arena pattern), consumed by the greedy below.
  thread_local std::vector<double> mean;
  mean.resize(support.size());
  noise_types(
      support.size(), [support](std::size_t j) { return support[j]; }, sum,
      sensitivity, k, policy, rng,
      [](std::size_t j, double v) { mean[j] = v; });
  poi::FrequencyVector release(sum.size());
  opt::greedy_release_sparse(support, mean, rank, policy.beta,
                             policy.max_injection, max_rank, release);
  return release;
}

poi::FrequencyVector DpDefense::release(geo::Point location, double r,
                                        common::Rng& rng) const {
  std::vector<double> sum;
  std::vector<double> sensitivity;
  std::vector<poi::TypeId> support;
  const std::size_t k =
      dummy_aggregate(location, r, rng, sum, sensitivity, support);
  return noised_release(sum, sensitivity, support, k, config_,
                        db_->infrequency_rank(), db_->rare_type_count(), rng);
}

}  // namespace poiprivacy::defense
