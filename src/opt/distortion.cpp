#include "opt/distortion.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace poiprivacy::opt {

namespace {

poi::FrequencyVector rounded_base(std::span<const double> base) {
  poi::FrequencyVector out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) out[i] = rounded_entry(base[i]);
  return out;
}

struct Candidate {
  double ratio;
  double unit_cost;
  std::size_t index;
};

/// Per-thread candidate buffer (the poi::scratch_arena pattern): it keeps
/// its capacity across calls, so steady-state solves allocate nothing.
std::vector<Candidate>& candidate_scratch() {
  thread_local std::vector<Candidate> scratch;
  return scratch;
}

/// The one greedy solve behind greedy_release and greedy_release_sparse.
/// The base is type_at(j) -> base_at(j) for j < n (ascending types) and 0
/// everywhere else; `release` holds m zeros on entry.
template <typename TypeAt, typename BaseAt>
void greedy_solve(std::size_t n, TypeAt type_at, BaseAt base_at,
                  std::span<const int> rank, double beta,
                  std::int32_t max_injection, int max_rank,
                  std::span<std::int32_t> release) {
  const std::size_t m = release.size();
  const double md = static_cast<double>(m);
  // Per-unit benefit 1/R(i); per-unit budget cost 1/(M (b_i + 1)).
  // Greedy over descending benefit/cost = M (b_i + 1) / R(i), restricted
  // to the types whose cap is positive and whose rank is perturbable.
  std::vector<Candidate>& candidates = candidate_scratch();
  candidates.clear();
  // The most candidates this call can make, so one call per support size
  // sizes the buffer for good.
  candidates.reserve(max_injection > 0 ? m : n);
  const auto consider = [&](std::size_t i, double b) {
    if (max_rank > 0 && rank[i] > max_rank) return;
    // Suppress positive entries down to 0; inject into zero entries.
    if (release[i] <= 0 && max_injection <= 0) return;
    candidates.push_back(
        {md * (b + 1.0) / static_cast<double>(rank[i]), 1.0 / (b + 1.0), i});
  };
  // A type off the support has base 0 and release 0: only injection can
  // move it.
  std::size_t next = 0;  // first type not yet considered
  const auto consider_zeros_below = [&](std::size_t end) {
    if (max_injection <= 0) return;
    for (; next < end; ++next) consider(next, 0.0);
  };
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = type_at(j);
    assert(i >= next && i < m);  // ascending, in range
    consider_zeros_below(i);
    const double b = std::max(0.0, base_at(j));
    release[i] = rounded_entry(b);
    consider(i, b);
    next = i + 1;
  }
  consider_zeros_below(m);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.index < b.index;  // deterministic tie-break
            });

  double remaining = beta * md;
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
}

void check_problem(std::size_t m, std::span<const int> rank, double beta) {
  if (rank.size() != m) {
    throw std::invalid_argument("optimize_release: base/rank size mismatch");
  }
  if (beta < 0.0) {
    throw std::invalid_argument("optimize_release: beta must be >= 0");
  }
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
  check_problem(base.size(), rank, beta);
  poi::FrequencyVector release(base.size());
  greedy_solve(
      base.size(), [](std::size_t j) { return j; },
      [base](std::size_t j) { return base[j]; }, rank, beta, max_injection,
      max_rank, release);
  return release;
}

void greedy_release_sparse(std::span<const poi::TypeSumMax> support,
                           std::span<const double> support_base,
                           std::span<const int> rank, double beta,
                           std::int32_t max_injection, int max_rank,
                           std::span<std::int32_t> release) {
  check_problem(release.size(), rank, beta);
  if (support_base.size() != support.size()) {
    throw std::invalid_argument(
        "greedy_release_sparse: support/base size mismatch");
  }
  greedy_solve(
      support.size(),
      [support](std::size_t j) {
        return static_cast<std::size_t>(support[j].type);
      },
      [support_base](std::size_t j) { return support_base[j]; }, rank, beta,
      max_injection, max_rank, release);
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
