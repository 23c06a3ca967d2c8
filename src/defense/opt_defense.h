// The paper's aggregate-level defenses.
//
//   * OptimizationDefense — the non-private formulation of Eq. (7): the
//     true frequency vector is perturbed under an average relative
//     distortion budget beta, with perturbation weighted towards the
//     citywide-rarest types (which drive the re-identification attack).
//
//   * DpDefense — the (eps, delta)-differentially private release of
//     Section V-B / Eq. (8)-(9):
//       1. spatial k-cloaking produces k dummy locations (incl. the user);
//       2. the k frequency vectors are averaged with Gaussian noise whose
//          per-dimension sensitivity is max_d F_d[i] (the paper's proof);
//       3. the optimizer of Eq. (9) post-processes the noised mean, which
//          preserves the DP guarantee (Lemma 3).
#pragma once

#include <span>
#include <vector>

#include "cloak/kcloak.h"
#include "dp/mechanisms.h"
#include "opt/distortion.h"
#include "poi/database.h"

namespace poiprivacy::defense {

/// The Eq. (9) post-processing step shared by OptimizationDefense,
/// DpDefense and the serving layer: optimize the (real-valued) base
/// vector under average relative distortion budget `beta`, perturbing
/// only ranks up to db.rare_type_count() (see DESIGN.md 4b.5). Runs the
/// release-only opt::greedy_release. Post-processing, so it preserves
/// whatever DP guarantee the base vector carries (Lemma 3).
poi::FrequencyVector postprocess_release(const poi::PoiDatabase& db,
                                         std::span<const double> base,
                                         double beta,
                                         std::int32_t max_injection);

class OptimizationDefense {
 public:
  /// `max_injection` > 0 additionally injects fake counts into absent
  /// rare types. That hijacks the attack's pivot type and drives its
  /// success rate to zero even at beta = 0.01 — strictly stronger than
  /// the gradual suppression-only defense the paper reports, so it is off
  /// by default and exposed as an ablation.
  OptimizationDefense(const poi::PoiDatabase& db, double beta,
                      std::int32_t max_injection = 0)
      : db_(&db), beta_(beta), max_injection_(max_injection) {}

  poi::FrequencyVector release(const poi::FrequencyVector& original) const;

  double beta() const noexcept { return beta_; }

 private:
  const poi::PoiDatabase* db_;
  double beta_;
  std::int32_t max_injection_;
};

/// Noise mechanism for the private mean of Eq. (8).
enum class DpNoiseKind {
  /// The paper's Gaussian mechanism — (eps, delta)-DP per Definition 2.
  kGaussian,
  /// Two-sided geometric (discrete Laplace) noise — pure eps-DP
  /// (delta = 0); under the paper's neighboring-datasets definition only
  /// one dimension changes, so per-dimension noise calibrated to that
  /// dimension's sensitivity suffices. Ablated in
  /// `poibench --scenario ablation_dp_noise`.
  kGeometric,
};

struct DpDefenseConfig {
  std::size_t k = 20;      ///< cloaking parameter / number of dummies
  double epsilon = 1.0;
  double delta = 0.2;
  DpNoiseKind noise = DpNoiseKind::kGaussian;
  double beta = 0.02;      ///< Eq. (9) distortion budget
  /// See OptimizationDefense: fake-count injection is an extra-strength
  /// ablation, disabled by default.
  std::int32_t max_injection = 0;
};

/// The Eq. (8) noised mean shared by DpDefense and the serving layer:
/// per type i, sum[i] plus noise calibrated to sensitivity[i] (none where
/// it is 0), divided by k. Gaussian noise uses Definition 2's sigma;
/// geometric noise perturbs the rounded sum. (eps, delta) are validated
/// once per call: throws std::invalid_argument if they are ill-formed for
/// `policy.noise`. The dense form of noised_release's noise: both run one
/// noising loop, in ascending type order.
std::vector<double> noise_aggregate(std::span<const double> sum,
                                    std::span<const double> sensitivity,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    common::Rng& rng);

/// Step (2) over a drawn dummy set: per type i, sum[i] = sum_d F_d[i]
/// and sensitivity[i] = Delta_i = max_d F_d[i], both as doubles, plus the
/// aggregate's support: the ascending types with sum[i] != 0. Counts are
/// nonnegative, so that is also where Delta_i > 0, and off the support
/// the noised mean is a draw-free +-0 and the release entry is 0
/// (DESIGN.md 4e, Phase F). The folds are exact int32 sums and maxima
/// (PoiDatabase::freq_sum_max), converted once; every partial sum of a
/// double fold would be an exact integer below 2^31, so the result is
/// bit-identical to one. All three outputs are overwritten. Throws
/// std::invalid_argument if dummies.size() > db.max_fold_centers().
void aggregate_dummies(const poi::PoiDatabase& db,
                       std::span<const geo::Point> dummies, double r,
                       std::vector<double>& sum,
                       std::vector<double>& sensitivity,
                       std::vector<poi::TypeId>& support);

/// One private release, Eq. (8) then Eq. (9), touching only `support`
/// (the ascending types with sum[i] != 0 or sensitivity[i] > 0; every
/// other type must have both zero): the noise draws run over the support
/// in ascending order, the Eq. (9) greedy over the support's candidates
/// (plus the zero types of rank <= max_rank when max_injection > 0).
/// Byte-identical to opt::greedy_release(noise_aggregate(sum,
/// sensitivity, k, policy, rng), rank, policy.beta, policy.max_injection,
/// max_rank), and leaves `rng` in the same state. The returned vector is
/// the only steady-state heap allocation.
poi::FrequencyVector noised_release(std::span<const double> sum,
                                    std::span<const double> sensitivity,
                                    std::span<const poi::TypeId> support,
                                    std::size_t k,
                                    const DpDefenseConfig& policy,
                                    std::span<const int> rank, int max_rank,
                                    common::Rng& rng);

class DpDefense {
 public:
  DpDefense(const poi::PoiDatabase& db,
            const cloak::AdaptiveIntervalCloaker& cloaker,
            DpDefenseConfig config)
      : db_(&db), cloaker_(&cloaker), config_(config) {}

  /// The full private release pipeline for one query.
  poi::FrequencyVector release(geo::Point location, double r,
                               common::Rng& rng) const;

  /// The intermediate noised mean F*_D (exposed for tests/inspection).
  std::vector<double> noised_mean(geo::Point location, double r,
                                  common::Rng& rng) const;

  const DpDefenseConfig& config() const noexcept { return config_; }

 private:
  /// Draws the k dummies around `location` and fills their
  /// aggregate_dummies outputs; returns k.
  std::size_t dummy_aggregate(geo::Point location, double r,
                              common::Rng& rng, std::vector<double>& sum,
                              std::vector<double>& sensitivity,
                              std::vector<poi::TypeId>& support) const;

  const poi::PoiDatabase* db_;
  const cloak::AdaptiveIntervalCloaker* cloaker_;
  DpDefenseConfig config_;
};

}  // namespace poiprivacy::defense
