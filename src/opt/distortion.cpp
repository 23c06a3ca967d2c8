#include "opt/distortion.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::opt {

namespace {

poi::FrequencyVector rounded_base(std::span<const double> base) {
  poi::FrequencyVector out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = static_cast<std::int32_t>(std::llround(std::max(0.0, base[i])));
  }
  return out;
}

}  // namespace

double weighted_objective(std::span<const double> base,
                          std::span<const int> rank,
                          const poi::FrequencyVector& release) {
  assert(base.size() == rank.size() && base.size() == release.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    acc += std::abs(release[i] - std::max(0.0, base[i])) /
           static_cast<double>(rank[i]);
  }
  return acc;
}

double mean_relative_distortion(std::span<const double> base,
                                const poi::FrequencyVector& release) {
  assert(base.size() == release.size());
  if (base.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double b = std::max(0.0, base[i]);
    acc += std::abs(release[i] - b) / (b + 1.0);
  }
  return acc / static_cast<double>(base.size());
}

poi::FrequencyVector greedy_release(std::span<const double> base,
                                    std::span<const int> rank, double beta,
                                    std::int32_t max_injection, int max_rank) {
  const std::size_t m = base.size();
  if (rank.size() != m) {
    throw std::invalid_argument("optimize_release: base/rank size mismatch");
  }
  if (beta < 0.0) {
    throw std::invalid_argument("optimize_release: beta must be >= 0");
  }

  poi::FrequencyVector release = rounded_base(base);
  if (m == 0) return release;

  // Per-unit benefit 1/R(i); per-unit budget cost 1/(M (b_i + 1)).
  // Greedy over descending benefit/cost = M (b_i + 1) / R(i), restricted
  // to the types whose cap is positive and whose rank is perturbable.
  struct Candidate {
    double ratio;
    double unit_cost;
    std::size_t index;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < m; ++i) {
    if (max_rank > 0 && rank[i] > max_rank) continue;
    // Suppress positive entries down to 0; inject into zero entries.
    if (release[i] <= 0 && max_injection <= 0) continue;
    const double b = std::max(0.0, base[i]);
    candidates.push_back({static_cast<double>(m) * (b + 1.0) /
                              static_cast<double>(rank[i]),
                          1.0 / (b + 1.0), i});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.index < b.index;  // deterministic tie-break
            });

  double remaining = beta * static_cast<double>(m);
  for (const Candidate& c : candidates) {
    if (remaining <= 0.0) break;
    std::int32_t& entry = release[c.index];
    const std::int32_t cap = entry > 0 ? entry : max_injection;
    const auto affordable = static_cast<std::int32_t>(remaining / c.unit_cost);
    const std::int32_t delta = std::min(cap, affordable);
    if (delta <= 0) continue;
    entry += entry > 0 ? -delta : delta;
    remaining -= static_cast<double>(delta) * c.unit_cost;
  }
  return release;
}

DistortionSolution optimize_release(const DistortionProblem& problem) {
  DistortionSolution solution;
  solution.release =
      greedy_release(problem.base, problem.rank, problem.beta,
                     problem.max_injection, problem.max_rank);
  if (problem.base.empty()) return solution;
  solution.objective = weighted_objective(problem.base, problem.rank,
                                          solution.release);
  const double base_distortion =
      mean_relative_distortion(problem.base, rounded_base(problem.base));
  solution.spent_budget =
      mean_relative_distortion(problem.base, solution.release) -
      base_distortion;
  return solution;
}

}  // namespace poiprivacy::opt
