// Seeded property tests pinning the DP release path's fast routines to
// frozen copies of the straightforward code they replaced:
//
//   * opt::greedy_release (candidate filter + precomputed sort keys) and
//     opt::optimize_release against a full-sort greedy that recomputes
//     every ratio inside the comparator, over 200 seeds with M up to 300,
//     forced ratio ties, max_injection 0..2 and max_rank 0 or partial;
//   * defense::postprocess_release on a generated city against the same
//     oracle fed the rank vector and a freshly scanned rare-tail cap;
//   * defense::noised_release, the Eq. (8)-(9) release over an
//     aggregate's (type, sum, max) support entries, against the per-type
//     calibrated_sigma / GeometricMechanism noising oracle run on the
//     dense double aggregate and fed into the full-sort greedy, over 200
//     seeds: M in {1, 177, 272, 300}, support edge cases (sum != 0 with
//     zero max, positive max with zero sum, all-zero aggregates), both
//     noise kinds, max_injection 0..2 and max_rank 0 or partial. The RNG
//     must also be left in the same state (same number of draws);
//   * DpDefense::release against noised_mean followed by
//     postprocess_release on a generated city;
//   * the exact int32 step-(2) fold (defense::aggregate_dummies) against a
//     frozen copy of the dense double fold it replaced:
//     ReleaseService::compute_aggregate (with the old empty-row
//     fingerprint skip) on testville and Beijing over 200 seeds, k in
//     {1, 16, 32, 64} and r in {0.05, 0.5, 1, 2, 5} km, including regions
//     whose dummies see no POI: the cached block lists exactly the types
//     with sum != 0, ascending, with the dense sums and maxima, at exactly
//     its size; DpDefense::noised_mean and ::release against the dense
//     fold fed through the noising and greedy oracles.
//
// Every comparison is exact: releases, objectives and noised means must
// be bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "cloak/kcloak.h"
#include "common/rng.h"
#include "defense/opt_defense.h"
#include "dp/discrete.h"
#include "dp/mechanisms.h"
#include "opt/distortion.h"
#include "poi/city_model.h"
#include "service/release_service.h"

namespace poiprivacy {
namespace {

poi::FrequencyVector oracle_rounded_base(const std::vector<double>& base) {
  poi::FrequencyVector out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out[i] = static_cast<std::int32_t>(std::llround(std::max(0.0, base[i])));
  }
  return out;
}

/// Frozen copy of the full-sort greedy: every type enters the sort, the
/// comparator recomputes both ratios, and ineligible types are skipped
/// inside the budget loop.
opt::DistortionSolution oracle_optimize(const opt::DistortionProblem& p) {
  const std::size_t m = p.base.size();
  opt::DistortionSolution solution;
  solution.release = oracle_rounded_base(p.base);
  if (m == 0) return solution;
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto ratio = [&p, m](std::size_t i) {
    const double b = std::max(0.0, p.base[i]);
    return static_cast<double>(m) * (b + 1.0) / static_cast<double>(p.rank[i]);
  };
  std::sort(order.begin(), order.end(), [&ratio](std::size_t a, std::size_t b) {
    const double ra = ratio(a);
    const double rb = ratio(b);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  double remaining = p.beta * static_cast<double>(m);
  for (const std::size_t i : order) {
    if (remaining <= 0.0) break;
    if (p.max_rank > 0 && p.rank[i] > p.max_rank) continue;
    const double b = std::max(0.0, p.base[i]);
    const double unit_cost = 1.0 / (b + 1.0);
    const std::int32_t cap =
        solution.release[i] > 0 ? solution.release[i] : p.max_injection;
    if (cap <= 0) continue;
    const auto affordable = static_cast<std::int32_t>(remaining / unit_cost);
    const std::int32_t delta = std::min(cap, affordable);
    if (delta <= 0) continue;
    if (solution.release[i] > 0) {
      solution.release[i] -= delta;
    } else {
      solution.release[i] += delta;
    }
    remaining -= static_cast<double>(delta) * unit_cost;
  }
  solution.objective =
      opt::weighted_objective(p.base, p.rank, solution.release);
  solution.spent_budget =
      opt::mean_relative_distortion(p.base, solution.release) -
      opt::mean_relative_distortion(p.base, oracle_rounded_base(p.base));
  return solution;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A random permutation of 1..m, as PoiDatabase::infrequency_rank hands
/// out.
std::vector<int> random_ranks(std::size_t m, common::Rng& rng) {
  std::vector<int> rank(m);
  std::iota(rank.begin(), rank.end(), 1);
  for (std::size_t i = m; i > 1; --i) {
    std::swap(rank[i - 1],
              rank[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return rank;
}

/// A random instance. Ranks are a permutation of 1..M, as the database
/// hands out. About a third of the types get base c * R - 1 for one shared
/// c, so their ratios M (b + 1) / R tie exactly and the index tie-break
/// decides; the rest mix zeros, negatives (clamped to 0), half-integers
/// (rounding) and larger reals.
opt::DistortionProblem random_problem(std::uint64_t seed) {
  common::Rng rng(seed);
  opt::DistortionProblem p;
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 300));
  p.rank = random_ranks(m, rng);
  const double tie_ratio = static_cast<double>(rng.uniform_int(1, 3));
  p.base.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    switch (rng.uniform_int(0, 5)) {
      case 0:
        p.base[i] = tie_ratio * static_cast<double>(p.rank[i]) - 1.0;
        break;
      case 1:
        p.base[i] = 0.0;
        break;
      case 2:
        p.base[i] = -rng.uniform(0.0, 3.0);
        break;
      case 3:
        p.base[i] = static_cast<double>(rng.uniform_int(0, 6)) + 0.5;
        break;
      case 4:
        p.base[i] = static_cast<double>(rng.uniform_int(1, 12));
        break;
      default:
        p.base[i] = rng.uniform(0.0, 40.0);
        break;
    }
  }
  p.beta = rng.uniform(0.0, 0.3);
  p.max_injection = static_cast<std::int32_t>(rng.uniform_int(0, 2));
  p.max_rank = rng.bernoulli(0.5)
                   ? 0
                   : static_cast<int>(rng.uniform_int(
                         1, static_cast<std::int64_t>(m)));
  return p;
}

TEST(GreedyRelease, MatchesFullSortOracleOver200Seeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const opt::DistortionProblem p = random_problem(seed);
    const opt::DistortionSolution want = oracle_optimize(p);
    EXPECT_EQ(opt::greedy_release(p.base, p.rank, p.beta, p.max_injection,
                                  p.max_rank),
              want.release)
        << "seed " << seed;
    const opt::DistortionSolution got = opt::optimize_release(p);
    EXPECT_EQ(got.release, want.release) << "seed " << seed;
    EXPECT_TRUE(same_bits(got.objective, want.objective)) << "seed " << seed;
    EXPECT_TRUE(same_bits(got.spent_budget, want.spent_budget))
        << "seed " << seed;
  }
}

TEST(GreedyRelease, AllTiedRatiosFollowIndexOrder) {
  // Every ratio is M * 2: the budget must flow to the lowest indices.
  opt::DistortionProblem p;
  for (int r = 1; r <= 8; ++r) {
    p.rank.push_back(9 - r);
    p.base.push_back(2.0 * (9 - r) - 1.0);
  }
  p.beta = 0.2;
  p.max_injection = 0;
  const poi::FrequencyVector got =
      opt::greedy_release(p.base, p.rank, p.beta, p.max_injection, 0);
  EXPECT_EQ(got, oracle_optimize(p).release);
  EXPECT_NE(got, oracle_rounded_base(p.base));
}

TEST(PostprocessRelease, MatchesOracleWithScannedRareCap) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::PoiDatabase& db = city.db;
  ASSERT_EQ(db.rare_type_count(),
            static_cast<int>(
                db.types_with_city_freq_at_most(poi::PoiDatabase::kRareCityFreq)
                    .size()));
  ASSERT_GT(db.rare_type_count(), 0);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    common::Rng rng(1000 + seed);
    opt::DistortionProblem p;
    p.base.resize(db.num_types());
    for (double& b : p.base) b = rng.uniform(-1.0, 6.0);
    p.rank = db.infrequency_rank();
    p.beta = rng.uniform(0.0, 0.1);
    p.max_injection = static_cast<std::int32_t>(rng.uniform_int(0, 2));
    p.max_rank = static_cast<int>(db.types_with_city_freq_at_most(10).size());
    EXPECT_EQ(defense::postprocess_release(db, p.base, p.beta,
                                           p.max_injection),
              oracle_optimize(p).release)
        << "seed " << seed;
  }
}

/// Frozen copy of the per-type noising loop: calibrated_sigma (or a fresh
/// GeometricMechanism) for every type with positive sensitivity.
std::vector<double> oracle_noised_mean(const std::vector<double>& sum,
                                       const std::vector<double>& sensitivity,
                                       std::size_t k,
                                       const defense::DpDefenseConfig& policy,
                                       common::Rng& rng) {
  std::vector<double> mean(sum.size(), 0.0);
  const dp::PrivacyParams params{policy.epsilon, policy.delta};
  for (std::size_t i = 0; i < sum.size(); ++i) {
    double noised = sum[i];
    if (sensitivity[i] > 0.0) {
      if (policy.noise == defense::DpNoiseKind::kGaussian) {
        noised += rng.normal(
            0.0, dp::GaussianMechanism::calibrated_sigma(params, sensitivity[i]));
      } else {
        const dp::GeometricMechanism mech(
            policy.epsilon, static_cast<std::int64_t>(sensitivity[i]));
        noised = static_cast<double>(mech.perturb(
            static_cast<std::int64_t>(std::llround(noised)), rng));
      }
    }
    mean[i] = noised / static_cast<double>(k);
  }
  return mean;
}

TEST(NoisedRelease, MatchesDenseOracleOver200Seeds) {
  constexpr std::size_t kSizes[] = {1, 177, 272, 300};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    common::Rng gen(9000 + seed);
    const std::size_t m = kSizes[seed % 4];
    const auto k = static_cast<std::size_t>(gen.uniform_int(1, 40));
    // Every tenth aggregate is all zero; the rest are mostly zero (the
    // serving regime) with the support's edge cases mixed in.
    std::vector<poi::TypeSumMax> support;
    if (seed % 10 != 0) {
      for (std::size_t i = 0; i < m; ++i) {
        const auto type = static_cast<poi::TypeId>(i);
        switch (gen.uniform_int(0, 7)) {
          case 0: {  // an ordinary counted type
            const auto max = static_cast<std::int32_t>(gen.uniform_int(1, 9));
            const auto times = static_cast<std::int32_t>(gen.uniform_int(1, 5));
            support.push_back({type, max * times, max});
            break;
          }
          case 1: {  // sum != 0 but zero max: no draw, mean sum / k
            const auto sum = static_cast<std::int32_t>(gen.uniform_int(-3, 7));
            support.push_back({type, sum >= 0 ? sum + 1 : sum, 0});
            break;
          }
          case 2:  // positive max but zero sum: a draw around 0
            support.push_back(
                {type, 0, static_cast<std::int32_t>(gen.uniform_int(1, 4))});
            break;
          default:
            break;
        }
      }
    }
    // The dense double aggregate the oracle noises.
    std::vector<double> sum(m, 0.0);
    std::vector<double> sensitivity(m, 0.0);
    for (const poi::TypeSumMax& entry : support) {
      sum[entry.type] = static_cast<double>(entry.sum);
      sensitivity[entry.type] = static_cast<double>(entry.max);
    }
    const std::vector<int> rank = random_ranks(m, gen);
    const int max_rank =
        gen.bernoulli(0.5)
            ? 0
            : static_cast<int>(
                  gen.uniform_int(1, static_cast<std::int64_t>(m)));
    defense::DpDefenseConfig policy;
    policy.k = k;
    policy.epsilon = gen.uniform(0.05, 4.0);
    policy.delta = gen.uniform(1e-6, 0.5);
    policy.noise = gen.bernoulli(0.5) ? defense::DpNoiseKind::kGaussian
                                      : defense::DpNoiseKind::kGeometric;
    policy.beta = gen.uniform(0.0, 0.3);
    policy.max_injection = static_cast<std::int32_t>(gen.uniform_int(0, 2));

    common::Rng a(seed);
    common::Rng b(seed);
    const poi::FrequencyVector got =
        defense::noised_release(support, k, policy, rank, max_rank, a);
    opt::DistortionProblem dense;
    dense.base = oracle_noised_mean(sum, sensitivity, k, policy, b);
    dense.rank = rank;
    dense.beta = policy.beta;
    dense.max_injection = policy.max_injection;
    dense.max_rank = max_rank;
    EXPECT_EQ(got, oracle_optimize(dense).release) << "seed " << seed;
    // Same draws: the generators continue identically, spare normal
    // included.
    EXPECT_EQ(a.uniform(), b.uniform()) << "seed " << seed;
    EXPECT_EQ(a.normal(), b.normal()) << "seed " << seed;
  }
}

TEST(NoisedRelease, DpDefenseMatchesNoisedMeanThenPostprocess) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::PoiDatabase& db = city.db;
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 2000, pop_rng), db.bounds());
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    defense::DpDefenseConfig config;
    config.k = 4 + seed % 8;
    config.noise = seed % 2 == 0 ? defense::DpNoiseKind::kGaussian
                                 : defense::DpNoiseKind::kGeometric;
    config.max_injection = static_cast<std::int32_t>(seed % 3);
    config.beta = 0.01 * static_cast<double>(seed % 5);
    const defense::DpDefense dp(db, cloaker, config);
    common::Rng where(seed);
    const geo::Point location{
        where.uniform(db.bounds().min_x, db.bounds().max_x),
        where.uniform(db.bounds().min_y, db.bounds().max_y)};
    const double r = 0.5 + 0.5 * static_cast<double>(seed % 4);
    common::Rng a(100 + seed);
    common::Rng b(100 + seed);
    const poi::FrequencyVector got = dp.release(location, r, a);
    const poi::FrequencyVector want = defense::postprocess_release(
        db, dp.noised_mean(location, r, b), config.beta,
        config.max_injection);
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(a.uniform(), b.uniform()) << "seed " << seed;
  }
}

/// Frozen copy of the dense step-(2) fold the serving layer and
/// DpDefense ran before their exact int32 fold: the k rows in a
/// FreqArena, then per row (ascending dummy order) a double += and a
/// max against a double per type, and the support rescanned from the
/// doubles. `skip_empty` adds the serving path's all-clear fingerprint
/// skip.
struct DenseAggregate {
  std::vector<double> sum;
  std::vector<double> sensitivity;
  std::vector<poi::TypeId> support;
};

DenseAggregate oracle_dense_fold(const poi::PoiDatabase& db,
                                 const std::vector<geo::Point>& dummies,
                                 double r, bool skip_empty) {
  const std::size_t m = db.num_types();
  DenseAggregate out;
  out.sum.assign(m, 0.0);
  out.sensitivity.assign(m, 0.0);
  poi::FreqArena arena;
  db.freq_batch(dummies, r, arena);
  arena.pack_fingerprints();
  for (std::size_t d = 0; d < arena.rows(); ++d) {
    if (skip_empty && poi::fingerprint_empty(arena.fingerprint(d))) continue;
    const std::span<const std::int32_t> row = arena.row(d);
    for (std::size_t i = 0; i < m; ++i) {
      out.sum[i] += row[i];
      out.sensitivity[i] =
          std::max(out.sensitivity[i], static_cast<double>(row[i]));
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (out.sum[i] != 0.0 || out.sensitivity[i] > 0.0) {
      out.support.push_back(static_cast<poi::TypeId>(i));
    }
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The dense fold's support as the cache stores it: one (type, sum, max)
/// entry per type with sum != 0, ascending. Counts are nonnegative, so
/// the dense support (sum != 0 or sensitivity > 0) must be exactly that
/// set; the conversions back to int32 must be exact.
std::vector<poi::TypeSumMax> oracle_support(const DenseAggregate& dense) {
  std::vector<poi::TypeSumMax> out;
  for (std::size_t i = 0; i < dense.sum.size(); ++i) {
    EXPECT_EQ(dense.sum[i] != 0.0, dense.sensitivity[i] > 0.0) << "type " << i;
    if (dense.sum[i] == 0.0) continue;
    const poi::TypeSumMax entry{static_cast<poi::TypeId>(i),
                                static_cast<std::int32_t>(dense.sum[i]),
                                static_cast<std::int32_t>(dense.sensitivity[i])};
    EXPECT_EQ(static_cast<double>(entry.sum), dense.sum[i]);
    EXPECT_EQ(static_cast<double>(entry.max), dense.sensitivity[i]);
    out.push_back(entry);
  }
  EXPECT_EQ(out.size(), dense.support.size());
  return out;
}

/// ReleaseService::compute_aggregate (exact int32 fold) against the
/// frozen dense double fold with the fingerprint skip: the support
/// entries (types with sum != 0, ascending, with their sums and maxima)
/// and k exactly, the block at exactly its size, and no dense vectors.
/// Every seed cloaks a fresh location at each k and radius; every fifth
/// seed instead uses a region off the city, so no dummy sees a POI
/// (r = 0.05 km also leaves many rows empty).
void check_compute_aggregate(const poi::City& city) {
  const poi::PoiDatabase& db = city.db;
  common::Rng pop_rng(43);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 2000, pop_rng), db.bounds());
  service::ServiceConfig config;
  for (const std::size_t k : {1, 16, 32, 64}) {
    config.policies.push_back(
        {"k" + std::to_string(k), {.k = k, .epsilon = 0.5, .delta = 0.01}});
  }
  config.seed = 31;
  const service::ReleaseService gsp(db, cloaker, config);
  // The service's aggregate RNG base (ReleaseService seeds it this way).
  const common::Rng aggregate_base = common::Rng(config.seed).substream(1);
  const geo::BBox& b = db.bounds();
  const double width = b.max_x - b.min_x;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    common::Rng where(seed);
    const geo::Point location{where.uniform(b.min_x, b.max_x),
                              where.uniform(b.min_y, b.max_y)};
    for (service::PolicyId policy = 0; policy < config.policies.size();
         ++policy) {
      for (const double r : {0.05, 0.5, 1.0, 2.0, 5.0}) {
        service::ReleaseCacheKey key;
        key.region =
            cloaker.cloak(location, config.policies[policy].release.k).region;
        if (seed % 5 == 4) {  // off the city: uniform dummies, no POIs
          key.region = {b.max_x + 2.0 * width, b.min_y,
                        b.max_x + 2.0 * width + 1.0, b.min_y + 1.0};
        }
        key.radius = r;
        key.policy = policy;
        SCOPED_TRACE("seed " + std::to_string(seed) + " k " +
                     std::to_string(config.policies[policy].release.k) +
                     " r " + std::to_string(r));
        const service::CloakAggregate got = gsp.compute_aggregate(key);
        common::Rng rng =
            aggregate_base.substream(service::ReleaseCache::hash(key));
        const std::vector<geo::Point> dummies = cloaker.region_dummy_locations(
            key.region, config.policies[policy].release.k, rng);
        const DenseAggregate want =
            oracle_dense_fold(db, dummies, r, /*skip_empty=*/true);
        ASSERT_EQ(got.k, dummies.size());
        ASSERT_EQ(got.support, oracle_support(want));
        ASSERT_EQ(got.support.capacity(), got.support.size());
        ASSERT_TRUE(got.sum.empty());
        ASSERT_TRUE(got.sensitivity.empty());
        if (seed % 5 == 4) {
          ASSERT_TRUE(got.support.empty());
        }
      }
    }
  }
}

TEST(ComputeAggregate, MatchesFrozenDenseFoldOnTestville) {
  check_compute_aggregate(poi::generate_city(poi::test_preset(), 7));
}

TEST(ComputeAggregate, MatchesFrozenDenseFoldOnBeijing) {
  check_compute_aggregate(poi::generate_city(poi::beijing_preset(), 42));
}

/// DpDefense::noised_mean and ::release against the frozen dense path:
/// the same dummy draw, the dense fold (no skip, as DpDefense ran it),
/// then the per-type noising oracle and the full-sort greedy. Both noise
/// kinds, k from 1 to 64, radii from 0.05 to 5 km; the RNG must end in
/// the same state.
TEST(DpDefense, NoisedMeanAndReleaseMatchFrozenDensePath) {
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  const poi::PoiDatabase& db = city.db;
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 2000, pop_rng), db.bounds());
  constexpr std::size_t kDummies[] = {1, 16, 32, 64};
  constexpr double kRadii[] = {0.05, 0.5, 1.0, 2.0, 5.0};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    defense::DpDefenseConfig config;
    config.k = kDummies[seed % 4];
    config.noise = seed % 2 == 0 ? defense::DpNoiseKind::kGaussian
                                 : defense::DpNoiseKind::kGeometric;
    config.max_injection = static_cast<std::int32_t>(seed % 3);
    config.beta = 0.01 * static_cast<double>(seed % 5);
    const double r = kRadii[(seed / 4) % 5];
    const defense::DpDefense dp(db, cloaker, config);
    common::Rng where(seed);
    const geo::Point location{
        where.uniform(db.bounds().min_x, db.bounds().max_x),
        where.uniform(db.bounds().min_y, db.bounds().max_y)};
    SCOPED_TRACE("seed " + std::to_string(seed));

    // The frozen path: draw, dense fold, then noise (and post-process).
    const auto dense_mean = [&](common::Rng& rng) {
      const std::vector<geo::Point> dummies =
          cloaker.dummy_locations(location, config.k, rng);
      const DenseAggregate agg =
          oracle_dense_fold(db, dummies, r, /*skip_empty=*/false);
      return oracle_noised_mean(agg.sum, agg.sensitivity, dummies.size(),
                                config, rng);
    };
    common::Rng a(100 + seed);
    common::Rng b(100 + seed);
    EXPECT_TRUE(same_bits(dp.noised_mean(location, r, a), dense_mean(b)));
    EXPECT_EQ(a(), b());

    common::Rng c(200 + seed);
    common::Rng d(200 + seed);
    opt::DistortionProblem problem;
    problem.base = dense_mean(d);
    problem.rank = db.infrequency_rank();
    problem.beta = config.beta;
    problem.max_injection = config.max_injection;
    problem.max_rank = db.rare_type_count();
    EXPECT_EQ(dp.release(location, r, c), oracle_optimize(problem).release);
    EXPECT_EQ(c(), d());
  }
}

TEST(NoisedRelease, RejectsIllFormedParams) {
  const std::vector<poi::TypeSumMax> support{{0, 1, 1}};
  const std::vector<int> rank{1, 2};
  common::Rng rng(1);
  defense::DpDefenseConfig gaussian;
  gaussian.delta = 0.0;
  EXPECT_THROW(defense::noised_release(support, 2, gaussian, rank, 0, rng),
               std::invalid_argument);
  defense::DpDefenseConfig geometric;
  geometric.noise = defense::DpNoiseKind::kGeometric;
  geometric.delta = 0.0;  // pure eps-DP: delta is not used
  EXPECT_NO_THROW(defense::noised_release(support, 2, geometric, rank, 0, rng));
  geometric.epsilon = 0.0;
  EXPECT_THROW(defense::noised_release(support, 2, geometric, rank, 0, rng),
               std::invalid_argument);
  // An empty support still validates: no draw, same refusal.
  EXPECT_THROW(defense::noised_release({}, 2, gaussian, rank, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace poiprivacy
