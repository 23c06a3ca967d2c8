#include "defense/opt_defense.h"

#include "dp/discrete.h"

#include <stdexcept>

namespace poiprivacy::defense {

namespace {

/// The one Eq. (8) noising loop behind noised_release and
/// DpDefense::noised_mean: visits the support in order and hands
/// emit(j, mean) entry j's noised mean. Converting an int32 sum or max to
/// double is exact, so every operand equals the dense double
/// aggregate's. The Gaussian factor sqrt(2 ln(1.25/delta)) is hoisted out
/// of the loop; each sigma is still (factor * Delta_i) / eps,
/// calibrated_sigma's evaluation order, so every draw is bit-identical to
/// calling it.
template <typename Emit>
void noise_support(std::span<const poi::TypeSumMax> support, std::size_t k,
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
  for (std::size_t j = 0; j < support.size(); ++j) {
    const poi::TypeSumMax& entry = support[j];
    double noised = static_cast<double>(entry.sum);
    if (entry.max > 0) {
      if (gaussian) {
        noised += rng.normal(
            0.0, factor * static_cast<double>(entry.max) / policy.epsilon);
      } else {
        const dp::GeometricMechanism mech(policy.epsilon, entry.max);
        noised = static_cast<double>(mech.perturb(entry.sum, rng));
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
                       std::vector<poi::TypeSumMax>& support) {
  // Per-thread int32 folds and entry buffer: the support is copied out
  // once at its final size.
  thread_local poi::FrequencyVector count_sum;
  thread_local poi::FrequencyVector count_max;
  thread_local std::vector<poi::TypeSumMax> present;
  db.freq_sum_max(dummies, r, count_sum, count_max);
  const std::size_t m = count_sum.size();
  present.resize(m);
  std::size_t n = 0;
  for (std::size_t i = 0; i < m; ++i) {
    present[n] = {static_cast<poi::TypeId>(i), count_sum[i], count_max[i]};
    n += count_sum[i] != 0;
  }
  support.assign(present.begin(),
                 present.begin() + static_cast<std::ptrdiff_t>(n));
}

std::size_t DpDefense::dummy_aggregate(
    geo::Point location, double r, common::Rng& rng,
    std::vector<poi::TypeSumMax>& support) const {
  const std::vector<geo::Point> dummies =
      cloaker_->dummy_locations(location, config_.k, rng);
  aggregate_dummies(*db_, dummies, r, support);
  return dummies.size();
}

std::vector<double> DpDefense::noised_mean(geo::Point location, double r,
                                           common::Rng& rng) const {
  std::vector<poi::TypeSumMax> support;
  const std::size_t k = dummy_aggregate(location, r, rng, support);
  std::vector<double> mean(db_->num_types(), 0.0);
  noise_support(support, k, config_, rng,
                [&](std::size_t j, double v) { mean[support[j].type] = v; });
  return mean;
}

poi::FrequencyVector noised_release(std::span<const poi::TypeSumMax> support,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    std::span<const int> rank, int max_rank,
                                    common::Rng& rng) {
  // Per-thread buffer for the support's noised means (the
  // poi::scratch_arena pattern), consumed by the greedy below.
  thread_local std::vector<double> mean;
  mean.resize(support.size());
  noise_support(support, k, policy, rng,
                [](std::size_t j, double v) { mean[j] = v; });
  poi::FrequencyVector release(rank.size());
  opt::greedy_release_sparse(support, mean, rank, policy.beta,
                             policy.max_injection, max_rank, release);
  return release;
}

poi::FrequencyVector DpDefense::release(geo::Point location, double r,
                                        common::Rng& rng) const {
  std::vector<poi::TypeSumMax> support;
  const std::size_t k = dummy_aggregate(location, r, rng, support);
  return noised_release(support, k, config_, db_->infrequency_rank(),
                        db_->rare_type_count(), rng);
}

}  // namespace poiprivacy::defense
