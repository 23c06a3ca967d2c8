// Budgeted weighted-distortion optimizer implementing the release
// objective of the paper's Eq. (7) (non-private) and Eq. (9) (DP variant):
//
//   max_{F~}  sum_i  (1 / R(i)) * |F~_i - F_i|
//   s.t.      (1/M) sum_i |F~_i - F_i| / (F_i + 1)  <=  beta,
//             F~_i a nonnegative integer,
//
// where R(i) is the citywide infrequency rank (rarest = 1).
//
// Interpretation notes (documented in DESIGN.md):
//   * The base vector may be real-valued (the DP variant feeds in a noised
//     mean), so an integer release necessarily spends some distortion on
//     rounding. We treat beta as the budget for distortion *beyond* the
//     nearest-integer release, which keeps every instance feasible.
//   * The continuous relaxation is a linear program whose optimum dumps
//     the entire budget into the single best benefit/cost type; that is
//     useless as a defense, so the solver caps the per-type change:
//     a positive entry may be suppressed down to 0, and a zero/rare entry
//     may be inflated by at most `max_injection`. Types are processed in
//     descending benefit/cost order, which is exactly the greedy optimum
//     of the capped problem.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "poi/frequency.h"

namespace poiprivacy::opt {

struct DistortionProblem {
  /// Base vector (F in Eq. 7, the noised mean F*_D in Eq. 9). Entries may
  /// be real-valued and are clamped at 0.
  std::vector<double> base;
  /// Citywide infrequency rank per type (1 = rarest). Same length as base.
  std::vector<int> rank;
  /// Average relative-distortion budget (the paper sweeps 0.01..0.05).
  double beta = 0.02;
  /// Cap on fake counts injected into a type whose base entry is 0.
  /// 0 disables injection.
  std::int32_t max_injection = 2;
  /// Only types with infrequency rank <= max_rank may be perturbed
  /// (<= 0 means no restriction). The defenses restrict perturbation to
  /// the rare tail: the weighted objective earns almost nothing on common
  /// types anyway, and spending leftover budget there would wreck the
  /// Top-K utility the paper reports as barely affected by beta.
  int max_rank = 0;
};

struct DistortionSolution {
  poi::FrequencyVector release;
  /// Objective value sum_i |release_i - base_i| / R(i).
  double objective = 0.0;
  /// Mean relative distortion beyond the rounded base (what beta bounds).
  double spent_budget = 0.0;
};

/// The rounded-base entry of x: max(0, x) rounded half away from zero,
/// exactly static_cast<int32_t>(std::llround(std::max(0.0, x))) for
/// every double (NaN, -0.0 and +-inf included). Below 2^31 the rounding
/// is inline: truncation is exact there, and so is the fraction b - t.
inline std::int32_t rounded_entry(double x) noexcept {
  const double b = std::max(0.0, x);
  if (!(b < 0x1p31)) return static_cast<std::int32_t>(std::llround(b));
  auto t = static_cast<std::int64_t>(b);
  t += b - static_cast<double>(t) >= 0.5;
  return static_cast<std::int32_t>(t);
}

/// Greedy solve of the capped problem; deterministic. The release comes
/// from greedy_release(); objective and spent_budget are computed on top.
DistortionSolution optimize_release(const DistortionProblem& problem);

/// The release-only greedy core behind optimize_release(), for callers
/// that discard the diagnostics (the serving hot path). Same parameters
/// as DistortionProblem, taken by view so nothing is copied. Only types
/// the greedy can change enter the sort: rank <= max_rank (when
/// max_rank > 0) and a positive cap (rounded base > 0, or
/// max_injection > 0). Each sort key and unit cost is computed once per
/// candidate. Skipped types never touch the budget and the comparator is
/// a total order, so the release is byte-identical to sorting all types.
poi::FrequencyVector greedy_release(std::span<const double> base,
                                    std::span<const int> rank, double beta,
                                    std::int32_t max_injection, int max_rank);

/// greedy_release for an m-type base that is 0 outside `support`: the
/// ascending types support[j].type carry base entries support_base[j]
/// (the entries' sums and maxima are not read).
/// `release` holds m zeros on entry and the release on return. Runs the
/// same greedy as greedy_release over the same candidates, so the result
/// is byte-identical to greedy_release on the dense base. The work is
/// O(|support|) unless max_injection > 0, which also makes every zero
/// type of rank <= max_rank a candidate. Candidates live in a per-thread
/// buffer, so a steady-state call allocates nothing.
void greedy_release_sparse(std::span<const poi::TypeSumMax> support,
                           std::span<const double> support_base,
                           std::span<const int> rank, double beta,
                           std::int32_t max_injection, int max_rank,
                           std::span<std::int32_t> release);

/// Objective of Eq. (7) for an arbitrary release.
double weighted_objective(std::span<const double> base,
                          std::span<const int> rank,
                          const poi::FrequencyVector& release);

/// Mean relative distortion (the constraint's left-hand side).
double mean_relative_distortion(std::span<const double> base,
                                const poi::FrequencyVector& release);

}  // namespace poiprivacy::opt
