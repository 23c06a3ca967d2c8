#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "opt/distortion.h"

namespace poiprivacy::opt {
namespace {

DistortionProblem small_problem() {
  DistortionProblem p;
  p.base = {0.0, 1.0, 3.0, 12.0, 40.0};
  p.rank = {1, 2, 3, 4, 5};  // index 0 is the rarest type
  p.beta = 0.05;
  p.max_injection = 2;
  return p;
}

TEST(Helpers, WeightedObjective) {
  const std::vector<double> base{2.0, 0.0};
  const std::vector<int> rank{1, 2};
  const poi::FrequencyVector release{0, 1};
  // |0-2|/1 + |1-0|/2 = 2.5
  EXPECT_DOUBLE_EQ(weighted_objective(base, rank, release), 2.5);
}

TEST(Helpers, MeanRelativeDistortion) {
  const std::vector<double> base{1.0, 3.0};
  const poi::FrequencyVector release{0, 3};
  // (|0-1|/2 + 0/4) / 2 = 0.25
  EXPECT_DOUBLE_EQ(mean_relative_distortion(base, release), 0.25);
}

TEST(Optimize, RejectsBadInputs) {
  DistortionProblem p = small_problem();
  p.rank.pop_back();
  EXPECT_THROW(optimize_release(p), std::invalid_argument);
  DistortionProblem q = small_problem();
  q.beta = -0.1;
  EXPECT_THROW(optimize_release(q), std::invalid_argument);
}

TEST(Optimize, ZeroBudgetReturnsRoundedBase) {
  DistortionProblem p = small_problem();
  p.beta = 0.0;
  const DistortionSolution s = optimize_release(p);
  EXPECT_EQ(s.release, (poi::FrequencyVector{0, 1, 3, 12, 40}));
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
  EXPECT_DOUBLE_EQ(s.spent_budget, 0.0);
}

TEST(Optimize, OutputIsNonNegativeInteger) {
  common::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    DistortionProblem p;
    const std::size_t m = 20;
    for (std::size_t i = 0; i < m; ++i) {
      p.base.push_back(rng.uniform(0.0, 15.0));
      p.rank.push_back(static_cast<int>(i) + 1);
    }
    p.beta = rng.uniform(0.0, 0.1);
    const DistortionSolution s = optimize_release(p);
    for (const auto v : s.release) EXPECT_GE(v, 0);
  }
}

TEST(Optimize, RespectsBudgetBeyondRounding) {
  common::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    DistortionProblem p;
    const std::size_t m = 40;
    for (std::size_t i = 0; i < m; ++i) {
      p.base.push_back(rng.bernoulli(0.5) ? rng.uniform(0.0, 20.0) : 0.0);
      p.rank.push_back(static_cast<int>(i) + 1);
    }
    p.beta = 0.03;
    const DistortionSolution s = optimize_release(p);
    EXPECT_LE(s.spent_budget, p.beta + 1e-9) << "trial " << trial;
  }
}

TEST(Optimize, NegativeBaseEntriesClampedToZero) {
  DistortionProblem p;
  p.base = {-3.0, -0.4, 2.0};
  p.rank = {1, 2, 3};
  p.beta = 0.0;
  const DistortionSolution s = optimize_release(p);
  EXPECT_EQ(s.release, (poi::FrequencyVector{0, 0, 2}));
}

TEST(Optimize, ObjectiveMonotoneInBeta) {
  DistortionProblem p = small_problem();
  double prev = -1.0;
  for (const double beta : {0.0, 0.01, 0.02, 0.05, 0.1}) {
    p.beta = beta;
    const DistortionSolution s = optimize_release(p);
    EXPECT_GE(s.objective, prev);
    prev = s.objective;
  }
}

TEST(Optimize, PrefersRareTypesFirst) {
  // Two positive entries with equal base but different rank: the rarer
  // one must be perturbed first under a tight budget.
  DistortionProblem p;
  p.base = {2.0, 2.0};
  p.rank = {1, 2};
  p.max_injection = 0;
  p.beta = 0.34;  // budget 0.68 total: exactly enough to suppress one entry
  const DistortionSolution s = optimize_release(p);
  EXPECT_EQ(s.release[0], 0);
  EXPECT_EQ(s.release[1], 2);
}

TEST(Optimize, InjectionCapHonored) {
  DistortionProblem p;
  p.base = {0.0, 0.0, 50.0};
  p.rank = {1, 2, 3};
  p.max_injection = 3;
  p.beta = 10.0;  // effectively unlimited budget
  const DistortionSolution s = optimize_release(p);
  EXPECT_LE(s.release[0], 3);
  EXPECT_LE(s.release[1], 3);
}

TEST(Optimize, InjectionDisabledLeavesZerosAlone) {
  DistortionProblem p;
  p.base = {0.0, 0.0, 5.0};
  p.rank = {1, 2, 3};
  p.max_injection = 0;
  p.beta = 1.0;
  const DistortionSolution s = optimize_release(p);
  EXPECT_EQ(s.release[0], 0);
  EXPECT_EQ(s.release[1], 0);
}

/// Exhaustive reference solver for tiny instances: enumerates all integer
/// releases with per-entry moves allowed by the same caps and picks the
/// best feasible objective.
double brute_force_best_objective(const DistortionProblem& p) {
  const std::size_t m = p.base.size();
  std::vector<std::vector<std::int32_t>> choices(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto b = static_cast<std::int32_t>(
        std::llround(std::max(0.0, p.base[i])));
    choices[i].push_back(b);
    if (b > 0) {
      for (std::int32_t v = 0; v < b; ++v) choices[i].push_back(v);
    } else {
      for (std::int32_t v = 1; v <= p.max_injection; ++v) {
        choices[i].push_back(v);
      }
    }
  }
  double best = 0.0;
  poi::FrequencyVector release(m, 0);
  const std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == m) {
      const double rounding = mean_relative_distortion(
          p.base, [&] {
            poi::FrequencyVector r(m);
            for (std::size_t j = 0; j < m; ++j) {
              r[j] = static_cast<std::int32_t>(
                  std::llround(std::max(0.0, p.base[j])));
            }
            return r;
          }());
      if (mean_relative_distortion(p.base, release) - rounding <=
          p.beta + 1e-12) {
        best = std::max(best, weighted_objective(p.base, p.rank, release));
      }
      return;
    }
    for (const std::int32_t v : choices[i]) {
      release[i] = v;
      rec(i + 1);
    }
  };
  rec(0);
  return best;
}

TEST(Optimize, GreedyMatchesBruteForceOnSuppressOnlyInstances) {
  // With suppression-only moves (each positive entry either kept or fully
  // tracked down in unit steps) the greedy ratio rule is exact whenever
  // budget boundaries align with whole units; verify on random tiny
  // instances that greedy is never worse than 95% of brute force and
  // never infeasible.
  common::Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    DistortionProblem p;
    const std::size_t m = 4;
    for (std::size_t i = 0; i < m; ++i) {
      p.base.push_back(static_cast<double>(rng.uniform_int(0, 4)));
      p.rank.push_back(static_cast<int>(i) + 1);
    }
    p.max_injection = 1;
    p.beta = rng.uniform(0.0, 0.6);
    const DistortionSolution greedy = optimize_release(p);
    const double best = brute_force_best_objective(p);
    EXPECT_LE(greedy.spent_budget, p.beta + 1e-9);
    EXPECT_GE(greedy.objective, 0.95 * best - 1e-9)
        << "trial " << trial << " greedy=" << greedy.objective
        << " brute=" << best;
  }
}

TEST(RoundedEntry, MatchesLlroundOfClampedValue) {
  const double inf = std::numeric_limits<double>::infinity();
  const double cases[] = {
      0.0,
      -0.0,
      0.5,
      1.5,
      2.5,
      std::nextafter(0.5, 0.0),
      0.49999999999999994,
      -0.5,
      -2.5,
      3.4999999999999996,
      0x1p31 - 1.0,
      0x1p31 - 0.5,
      0x1p31,
      0x1p31 + 1.0,
      0x1p52 - 0.5,
      0x1p52 + 0.5,
      0x1p63,
      1e300,
      std::numeric_limits<double>::quiet_NaN(),
      inf,
      -inf,
  };
  for (const double x : cases) {
    const auto want =
        static_cast<std::int32_t>(std::llround(std::max(0.0, x)));
    EXPECT_EQ(rounded_entry(x), want) << "x = " << x;
  }
  common::Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    // Halves, their neighbours and plain reals, up to 2^32.
    const double half = static_cast<double>(rng.uniform_int(0, 1 << 20)) + 0.5;
    const double x = i % 3 == 0   ? half
                     : i % 3 == 1 ? std::nextafter(half, i % 2 ? 0.0 : inf)
                                  : rng.uniform(-4.0, 0x1p32);
    const auto want =
        static_cast<std::int32_t>(std::llround(std::max(0.0, x)));
    ASSERT_EQ(rounded_entry(x), want) << "x = " << x;
  }
}

}  // namespace
}  // namespace poiprivacy::opt
