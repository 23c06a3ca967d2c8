// Property tests for the batched frequency-kernel engine:
//
//   * every vectorized kernel (dominates, dominates_early_exit,
//     l1_distance, diff_into, total, top_k_jaccard, fold_counts) against
//     its scalar reference oracle on seeded random inputs, including the
//     edge shapes the kernels special-case: empty vectors, length 1, odd
//     lengths, all-zero rows, and saturating INT32_MAX counts;
//   * PoiDatabase::freq_sum_max (Phase D; candidate-major on the AVX2
//     tier) and the (type, sum, max) support entries
//     defense::aggregate_dummies builds from it against the
//     centre-by-centre scan on every tier: k from 0 to
//     100 with duplicate, far-off, cell-corner, NaN and infinite centres,
//     radii from 0 to 1e200 (whose square is inf), NaN and negative radii,
//     the Beijing, NYC and a one-type city, POIs one ulp outside the
//     plain bounding square, and the k * |POIs| > INT32_MAX throw;
//   * the dispatch-tier differential harness: the same oracle sweep
//     repeated under every kernel tier the host can execute (scalar /
//     AVX2 / NEON), plus a cross-tier bit-identity check — and the whole
//     binary is additionally registered once per tier in ctest with
//     POIPRIVACY_KERNEL pinned, so every tier also runs the full suite
//     end to end;
//   * the allocation-free aggregate paths (freq_into, freq_batch) against
//     the canonical freq();
//   * the TileAggregates pruning invariant — the tile envelope must
//     dominate any contained disk — and the end-to-end exactness of the
//     pruned re-identification loop against an unpruned brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/region_reid.h"
#include "attack/robust_reid.h"
#include "common/rng.h"
#include "defense/opt_defense.h"
#include "poi/city_model.h"
#include "poi/frequency.h"
#include "poi/tile_aggregates.h"

namespace poiprivacy {
namespace {

using poi::FrequencyVector;

constexpr std::int32_t kSat = std::numeric_limits<std::int32_t>::max();

/// The edge-shape lengths every random trial cycles through: empty,
/// length 1, odd lengths, vector-register remainders, and the real
/// per-city type counts (Beijing 177, NYC 272).
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 7, 15, 16, 17,
                                    40, 63, 64, 65, 100, 177, 272, 301};

/// Draws a pair of same-length vectors for trial `t`. Mixes four regimes:
/// small uniform counts, near-equal pairs (so dominance is plausible and
/// both branches of the kernels are exercised), all-zero rows, and rows
/// salted with saturating counts.
std::pair<FrequencyVector, FrequencyVector> random_pair(common::Rng& rng,
                                                        int t) {
  const std::size_t n = kLengths[static_cast<std::size_t>(t) %
                                 std::size(kLengths)];
  FrequencyVector a(n), b(n);
  const int regime = t % 4;
  for (std::size_t i = 0; i < n; ++i) {
    switch (regime) {
      case 0:  // independent small counts
        a[i] = static_cast<std::int32_t>(rng.uniform_int(0, 50));
        b[i] = static_cast<std::int32_t>(rng.uniform_int(0, 50));
        break;
      case 1: {  // b near a: dominance often holds
        a[i] = static_cast<std::int32_t>(rng.uniform_int(0, 50));
        b[i] = std::max<std::int32_t>(
            0, a[i] + static_cast<std::int32_t>(rng.uniform_int(-1, 0)));
        break;
      }
      case 2:  // all-zero rows
        a[i] = 0;
        b[i] = 0;
        break;
      default:  // saturating counts sprinkled in
        a[i] = rng.bernoulli(0.2) ? kSat
                                  : static_cast<std::int32_t>(
                                        rng.uniform_int(0, 100));
        b[i] = rng.bernoulli(0.2) ? kSat
                                  : static_cast<std::int32_t>(
                                        rng.uniform_int(0, 100));
        break;
    }
  }
  return {std::move(a), std::move(b)};
}

/// The full 200-case oracle sweep, shared by the default-tier test and
/// the per-tier differential harness below.
void run_oracle_sweep() {
  common::Rng rng(20260806);
  for (int t = 0; t < 200; ++t) {
    const auto [a, b] = random_pair(rng, t);
    SCOPED_TRACE("trial " + std::to_string(t) + " len " +
                 std::to_string(a.size()));

    EXPECT_EQ(poi::dominates(a, b), poi::scalar_ref::dominates(a, b));
    EXPECT_EQ(poi::dominates_early_exit(a, b),
              poi::scalar_ref::dominates(a, b));
    EXPECT_EQ(poi::l1_distance(a, b), poi::scalar_ref::l1_distance(a, b));
    EXPECT_EQ(poi::total(a), poi::scalar_ref::total(a));
    EXPECT_EQ(poi::diff(a, b), poi::scalar_ref::diff(a, b));

    FrequencyVector out(a.size(), -1);
    poi::diff_into(a, b, out);
    EXPECT_EQ(out, poi::scalar_ref::diff(a, b));

    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{10}, a.size() + 3}) {
      EXPECT_EQ(poi::top_k_types(a, k), poi::scalar_ref::top_k_types(a, k));
      EXPECT_DOUBLE_EQ(poi::top_k_jaccard(a, b, k),
                       poi::scalar_ref::top_k_jaccard(a, b, k));
    }
  }
}

TEST(KernelOracle, MatchesScalarReferenceOn200SeededPairs) {
  run_oracle_sweep();
}

/// Restores whatever tier the process resolved on destruction, so the
/// tier-sweeping tests do not leak their override into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(poi::active_kernel_tier()) {}
  ~TierGuard() { poi::set_kernel_tier(saved_); }

 private:
  poi::KernelTier saved_;
};

TEST(KernelTierSweep, ResolvedTierIsAvailable) {
  const poi::KernelTier active = poi::active_kernel_tier();
  EXPECT_TRUE(poi::kernel_tier_available(active));
  const std::vector<poi::KernelTier> tiers = poi::available_kernel_tiers();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), active), tiers.end());
  // Visible in the test log so a CI run shows which tier it exercised.
  std::printf("[ kernel tier ] active=%s available=%zu\n",
              std::string(poi::kernel_tier_name(active)).c_str(),
              tiers.size());
}

TEST(KernelTierSweep, ScalarTierIsAlwaysAvailable) {
  EXPECT_TRUE(poi::kernel_tier_available(poi::KernelTier::kScalar));
  for (const poi::KernelTier tier :
       {poi::KernelTier::kScalar, poi::KernelTier::kAvx2,
        poi::KernelTier::kNeon}) {
    // set_kernel_tier accepts exactly the available tiers.
    TierGuard guard;
    EXPECT_EQ(poi::set_kernel_tier(tier), poi::kernel_tier_available(tier));
  }
}

// The dispatch-tier differential harness: the full oracle sweep re-runs
// under every tier this host can execute. Each tier must match the
// scalar reference bit for bit — there is no tolerance anywhere in the
// kernel layer.
TEST(KernelTierSweep, EveryAvailableTierMatchesScalarOracle) {
  TierGuard guard;
  for (const poi::KernelTier tier : poi::available_kernel_tiers()) {
    ASSERT_TRUE(poi::set_kernel_tier(tier));
    ASSERT_EQ(poi::active_kernel_tier(), tier);
    SCOPED_TRACE(std::string("tier ") +
                 std::string(poi::kernel_tier_name(tier)));
    run_oracle_sweep();
  }
}

// Cross-tier bit-identity stated directly (not just through the oracle):
// record every kernel's outputs under the scalar tier, then require the
// identical bits from each other available tier.
TEST(KernelTierSweep, TiersAreBitIdenticalToEachOther) {
  TierGuard guard;
  common::Rng rng(20260807);
  for (int t = 0; t < 60; ++t) {
    const auto [a, b] = random_pair(rng, t);
    SCOPED_TRACE("trial " + std::to_string(t) + " len " +
                 std::to_string(a.size()));

    ASSERT_TRUE(poi::set_kernel_tier(poi::KernelTier::kScalar));
    const bool dom = poi::dominates(a, b);
    const bool dom_early = poi::dominates_early_exit(a, b);
    const std::int64_t l1 = poi::l1_distance(a, b);
    const std::int64_t tot = poi::total(a);
    const FrequencyVector d = poi::diff(a, b);
    const std::vector<poi::TypeId> topk = poi::top_k_types(a, 5);
    std::vector<poi::FingerprintWord> fp(poi::fingerprint_words(a.size()));
    poi::pack_fingerprint(a, fp);

    for (const poi::KernelTier tier : poi::available_kernel_tiers()) {
      if (tier == poi::KernelTier::kScalar) continue;
      ASSERT_TRUE(poi::set_kernel_tier(tier));
      SCOPED_TRACE(std::string("tier ") +
                   std::string(poi::kernel_tier_name(tier)));
      EXPECT_EQ(poi::dominates(a, b), dom);
      EXPECT_EQ(poi::dominates_early_exit(a, b), dom_early);
      EXPECT_EQ(poi::l1_distance(a, b), l1);
      EXPECT_EQ(poi::total(a), tot);
      EXPECT_EQ(poi::diff(a, b), d);
      EXPECT_EQ(poi::top_k_types(a, 5), topk);
      std::vector<poi::FingerprintWord> fp2(poi::fingerprint_words(a.size()));
      poi::pack_fingerprint(a, fp2);
      EXPECT_EQ(fp2, fp);
    }
  }
}

/// fold_counts against scalar_ref::fold_counts on the active tier: every
/// length 0..70 (all vector remainders) plus 177 and 272, four rows folded
/// in a row per case. Regimes: small counts, all-zero rows, and counts up
/// to the int32 bound (each total_i + row_i stays <= INT32_MAX, the
/// kernel's precondition). The row must be all zero afterwards.
void run_fold_sweep() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  lengths.push_back(177);
  lengths.push_back(272);
  common::Rng rng(20261017);
  for (const std::size_t n : lengths) {
    for (int regime = 0; regime < 3; ++regime) {
      SCOPED_TRACE("len " + std::to_string(n) + " regime " +
                   std::to_string(regime));
      FrequencyVector total(n), peak(n);
      if (regime == 2) {  // start near the bound, leave room for the rows
        for (std::size_t i = 0; i < n; ++i) {
          total[i] = static_cast<std::int32_t>(
              rng.uniform_int(0, kSat - 4 * std::int64_t{1000}));
          peak[i] = static_cast<std::int32_t>(rng.uniform_int(0, kSat));
        }
      }
      FrequencyVector want_total = total, want_peak = peak;
      for (int fold = 0; fold < 4; ++fold) {
        FrequencyVector row(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (regime == 0) {
            row[i] = static_cast<std::int32_t>(rng.uniform_int(0, 50));
          } else if (regime == 2) {
            // The last fold lands exactly on INT32_MAX where it can.
            const std::int64_t room = kSat - std::int64_t{total[i]};
            row[i] = fold == 3 && rng.bernoulli(0.5)
                         ? static_cast<std::int32_t>(room)
                         : static_cast<std::int32_t>(rng.uniform_int(
                               0, std::min<std::int64_t>(room, 1000)));
          }
        }
        FrequencyVector want_row = row;
        poi::scalar_ref::fold_counts(want_row, want_total, want_peak);
        poi::fold_counts(row, total, peak);
        ASSERT_EQ(total, want_total) << "fold " << fold;
        ASSERT_EQ(peak, want_peak) << "fold " << fold;
        ASSERT_EQ(row, FrequencyVector(n, 0)) << "fold " << fold;
        ASSERT_EQ(want_row, FrequencyVector(n, 0)) << "fold " << fold;
      }
    }
  }
}

TEST(KernelOracle, FoldCountsHandComputed) {
  FrequencyVector row{3, 0, 7}, total{1, 2, 3}, peak{5, 0, 2};
  poi::fold_counts(row, total, peak);
  EXPECT_EQ(total, (FrequencyVector{4, 2, 10}));
  EXPECT_EQ(peak, (FrequencyVector{5, 0, 7}));
  EXPECT_EQ(row, (FrequencyVector{0, 0, 0}));
  FrequencyVector no_row, no_total, no_peak;
  poi::fold_counts(no_row, no_total, no_peak);  // n = 0 touches nothing
  EXPECT_TRUE(no_total.empty());
}

// fold_counts runs the portable loop on every tier (the AVX2 tier's
// candidate-major Phase D does not fold rows), so one sweep covers it.
TEST(KernelOracle, FoldCountsMatchesScalarOracle) { run_fold_sweep(); }

/// Today's centre-by-centre Phase D, the oracle of freq_sum_max: one
/// freq_into scan per centre (the grid's row-major label count), folded by
/// scalar_ref::fold_counts.
void per_centre_sum_max(const poi::PoiDatabase& db,
                        const std::vector<geo::Point>& centers, double r,
                        FrequencyVector& sum, FrequencyVector& max) {
  sum.assign(db.num_types(), 0);
  max.assign(db.num_types(), 0);
  FrequencyVector row;
  for (const geo::Point& c : centers) {
    db.freq_into(c, r, row);
    poi::scalar_ref::fold_counts(row, sum, max);
  }
}

/// A city whose POIs sit one ulp below a grid-cell boundary B (cells are
/// 0.5 km) at exactly distance r of a centre at B + r on either axis:
/// distance_sq rounds to r * r, so the predicate accepts them, yet
/// B + r - r == B puts the plain bounding square's low edge in the next
/// cell. Only a slack-widened window reaches them.
struct EdgeCity {
  poi::PoiDatabase db;
  std::vector<geo::Point> centers;
  double r;
};

EdgeCity edge_city(double r, std::size_t num_types) {
  std::vector<poi::Poi> pois;
  std::vector<geo::Point> centers;
  std::vector<std::string> names;
  for (std::size_t t = 0; t < num_types; ++t) {
    names.push_back("t" + std::to_string(t));
  }
  for (int i = 1; i <= 12; ++i) {
    const double b = 0.5 * i;           // a cell boundary
    const double lane = 0.25 + 0.5 * i;  // mid-cell on the other axis
    const double below = std::nextafter(b, 0.0);
    for (const bool along_x : {true, false}) {
      const geo::Point poi = along_x ? geo::Point{below, lane}
                                     : geo::Point{lane, below};
      const geo::Point c = along_x ? geo::Point{b + r, lane}
                                   : geo::Point{lane, b + r};
      pois.push_back({static_cast<poi::PoiId>(pois.size()),
                      static_cast<poi::TypeId>(pois.size() % num_types), poi});
      centers.push_back(c);
    }
  }
  return {poi::PoiDatabase("edgeville", std::move(pois),
                           poi::PoiTypeRegistry(std::move(names)),
                           {0.0, 0.0, 16.0, 16.0}),
          std::move(centers), r};
}

/// k centres of one kind. Kind 0: a cloak-like cluster (uniform in a
/// 0.5-3 km box), a third of them exact duplicates; kind 1: the same with
/// every other centre 50 km outside the bounds; kind 2: centres on grid
/// cell corners (0.5 km cells) inside and around the bounds; kind 3: the
/// cluster salted with NaN and +-inf coordinates.
std::vector<geo::Point> freq_sum_max_centres(common::Rng& rng,
                                             const geo::BBox& b,
                                             std::size_t k, int kind) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double side = rng.uniform(0.5, 3.0);
  const double x0 = rng.uniform(b.min_x, b.max_x - side);
  const double y0 = rng.uniform(b.min_y, b.max_y - side);
  std::vector<geo::Point> out;
  for (std::size_t j = 0; j < k; ++j) {
    geo::Point c{rng.uniform(x0, x0 + side), rng.uniform(y0, y0 + side)};
    if (!out.empty() && rng.bernoulli(0.3)) {
      c = out[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))];
    }
    if (kind == 1 && j % 2 == 1) {
      c = rng.bernoulli(0.5) ? geo::Point{b.max_x + 50.0, c.y}
                             : geo::Point{c.x, b.min_y - 50.0};
    } else if (kind == 2) {
      c = {b.min_x + 0.5 * static_cast<double>(rng.uniform_int(-2, 20)),
           b.min_y + 0.5 * static_cast<double>(rng.uniform_int(-2, 20))};
    } else if (kind == 3 && rng.bernoulli(0.3)) {
      const double odd[] = {kNan, kInf, -kInf};
      const double v = odd[rng.uniform_int(0, 2)];
      c = rng.bernoulli(0.5) ? geo::Point{v, c.y} : geo::Point{c.x, v};
    }
    out.push_back(c);
  }
  return out;
}

/// The support entries the oracle's folds give: one (type, sum, max) per
/// type with sum != 0, ascending.
std::vector<poi::TypeSumMax> oracle_support(const FrequencyVector& sum,
                                            const FrequencyVector& max) {
  std::vector<poi::TypeSumMax> out;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    if (sum[i] != 0) {
      out.push_back({static_cast<poi::TypeId>(i), sum[i], max[i]});
    }
  }
  return out;
}

/// freq_sum_max on the active tier against per_centre_sum_max, exact, and
/// the triples defense::aggregate_dummies builds from it against the
/// oracle's (k up to 100 runs the AVX2 tier's kernel in two lane passes).
void run_freq_sum_max_sweep() {
  constexpr std::size_t kKs[] = {0, 1, 7, 8, 9, 16, 17, 31, 32, 33, 64, 100};
  constexpr double kRadii[] = {0.0, 1e-9, 0.5, 1.0, 2.0, 7.5, 1e6, 1e200};
  std::vector<poi::City> cities;
  cities.push_back(poi::generate_city(poi::beijing_preset(), 3));
  cities.push_back(poi::generate_city(poi::nyc_preset(), 4));
  common::Rng rng(20261018);
  FrequencyVector sum, max, want_sum, want_max;
  const auto check = [&](const poi::PoiDatabase& db,
                         const std::vector<geo::Point>& centers, double r,
                         const std::string& what) {
    per_centre_sum_max(db, centers, r, want_sum, want_max);
    db.freq_sum_max(centers, r, sum, max);
    ASSERT_EQ(sum, want_sum) << what;
    ASSERT_EQ(max, want_max) << what;
    std::vector<poi::TypeSumMax> support;
    defense::aggregate_dummies(db, centers, r, support);
    ASSERT_EQ(support, oracle_support(want_sum, want_max)) << what;
    ASSERT_EQ(support.capacity(), support.size()) << what;
  };
  for (const poi::City& city : cities) {
    const poi::PoiDatabase& db = city.db;
    for (std::size_t ki = 0; ki < std::size(kKs); ++ki) {
      for (std::size_t ri = 0; ri < std::size(kRadii); ++ri) {
        // Every (k, r) pair meets each centre kind across the two cities;
        // the huge radii scan the whole city per centre, so they run at
        // the kinds that keep the oracle cheap enough.
        const int kind = static_cast<int>((ki + ri + db.num_types()) % 4);
        const auto centers =
            freq_sum_max_centres(rng, db.bounds(), kKs[ki], kind);
        check(db, centers, kRadii[ri],
              db.city_name() + " k=" + std::to_string(kKs[ki]) +
                  " r=" + std::to_string(kRadii[ri]) +
                  " kind=" + std::to_string(kind));
      }
    }
    // A NaN or negative radius matches nothing, on either path.
    const auto centers = freq_sum_max_centres(rng, db.bounds(), 17, 0);
    for (const double r : {std::numeric_limits<double>::quiet_NaN(), -0.01,
                           -1.0, -1e200}) {
      check(db, centers, r, db.city_name() + " r=" + std::to_string(r));
      EXPECT_EQ(sum, FrequencyVector(db.num_types(), 0));
    }
  }
  // A one-type city: every row is a single label.
  poi::CityPreset one = poi::test_preset();
  one.num_types = 1;
  one.target_rare_types = 0;
  const poi::City single = poi::generate_city(one, 5);
  ASSERT_EQ(single.db.num_types(), 1u);
  for (const std::size_t k : {1, 9, 33}) {
    for (const double r : {0.5, 2.0, 1e200}) {
      check(single.db, freq_sum_max_centres(rng, single.db.bounds(), k, 0), r,
            "one-type k=" + std::to_string(k) + " r=" + std::to_string(r));
    }
  }
  // POIs the predicate accepts just outside the plain bounding square:
  // each centre alone (where only its own window can reach its POI), then
  // all of them at once.
  for (const double r : {4.0, 8.0}) {
    const EdgeCity edge = edge_city(r, 5);
    for (std::size_t i = 0; i < edge.centers.size(); ++i) {
      check(edge.db, {edge.centers[i]}, edge.r,
            "edge r=" + std::to_string(r) + " centre " + std::to_string(i));
    }
    check(edge.db, edge.centers, edge.r, "edge r=" + std::to_string(r));
    std::int64_t brute = 0;
    for (const geo::Point& c : edge.centers) {
      for (const poi::Poi& p : edge.db.pois()) {
        brute += geo::distance_sq(p.pos, c) <= edge.r * edge.r;
      }
    }
    ASSERT_EQ(poi::total(sum), brute) << "edge r=" << r;
  }
}

// freq_sum_max per tier: the AVX2 tier runs the candidate-major kernel,
// the others the centre-by-centre scan; both must equal the oracle.
TEST(KernelTierSweep, FreqSumMaxMatchesPerCentreScanOnEveryTier) {
  TierGuard guard;
  for (const poi::KernelTier tier : poi::available_kernel_tiers()) {
    ASSERT_TRUE(poi::set_kernel_tier(tier));
    SCOPED_TRACE(std::string("tier ") +
                 std::string(poi::kernel_tier_name(tier)));
    run_freq_sum_max_sweep();
  }
}

// The int32 bound: k * |POIs| > INT32_MAX throws on every tier, and the
// largest accepted k does not.
TEST(KernelTierSweep, FreqSumMaxRejectsInt32OverflowOnEveryTier) {
  TierGuard guard;
  const poi::City city = poi::generate_city(poi::test_preset(), 6);
  const std::size_t limit = city.db.max_fold_centers();
  ASSERT_EQ(limit, static_cast<std::size_t>(kSat) / city.db.pois().size());
  const std::vector<geo::Point> too_many(limit + 1, city.db.poi(0).pos);
  const std::vector<geo::Point> at_limit(limit, city.db.poi(0).pos);
  for (const poi::KernelTier tier : poi::available_kernel_tiers()) {
    ASSERT_TRUE(poi::set_kernel_tier(tier));
    FrequencyVector sum, max;
    EXPECT_THROW(city.db.freq_sum_max(too_many, 0.5, sum, max),
                 std::invalid_argument);
    city.db.freq_sum_max(at_limit, 0.0, sum, max);
    EXPECT_EQ(poi::total(sum),
              static_cast<std::int64_t>(limit) *
                  poi::total(city.db.freq(city.db.poi(0).pos, 0.0)));
  }
}

TEST(KernelOracle, DominatesReflexiveAndEdgeCases) {
  const FrequencyVector empty;
  EXPECT_TRUE(poi::dominates(empty, empty));
  EXPECT_TRUE(poi::dominates_early_exit(empty, empty));
  EXPECT_EQ(poi::l1_distance(empty, empty), 0);
  EXPECT_EQ(poi::total(empty), 0);
  EXPECT_DOUBLE_EQ(poi::top_k_jaccard(empty, empty, 10), 1.0);

  const FrequencyVector one_lo{3}, one_hi{4};
  EXPECT_TRUE(poi::dominates(one_hi, one_lo));
  EXPECT_FALSE(poi::dominates(one_lo, one_hi));
  EXPECT_FALSE(poi::dominates_early_exit(one_lo, one_hi));
  EXPECT_EQ(poi::l1_distance(one_lo, one_hi), 1);

  // Saturating counts: |INT32_MAX - 0| must not overflow the accumulator.
  const FrequencyVector sat(100, kSat), zero(100, 0);
  EXPECT_EQ(poi::l1_distance(sat, zero), 100ll * kSat);
  EXPECT_EQ(poi::total(sat), 100ll * kSat);
  EXPECT_TRUE(poi::dominates(sat, zero));
  EXPECT_FALSE(poi::dominates(zero, sat));

  // A single violation in the last lane must defeat both variants.
  FrequencyVector a(177, 9), b(177, 9);
  b.back() = 10;
  EXPECT_FALSE(poi::dominates(a, b));
  EXPECT_FALSE(poi::dominates_early_exit(a, b));
  b.back() = 9;
  EXPECT_TRUE(poi::dominates(a, b));
  EXPECT_TRUE(poi::dominates_early_exit(a, b));
}

TEST(KernelOracle, DiffIntoAllowsAliasing) {
  FrequencyVector a{5, 3, 8, 1}, b{1, 1, 9, 1};
  const FrequencyVector expect = poi::scalar_ref::diff(a, b);
  poi::diff_into(a, b, a);  // out aliases a
  EXPECT_EQ(a, expect);
}

TEST(FreqArena, ResetReusesCapacityAndZeroFills) {
  poi::FreqArena arena;
  arena.reset(4, 100);
  EXPECT_EQ(arena.rows(), 4u);
  EXPECT_EQ(arena.row_len(), 100u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (const std::int32_t v : arena.row(i)) EXPECT_EQ(v, 0);
    arena.row(i)[0] = static_cast<std::int32_t>(i) + 1;
  }
  // Shrinking then regrowing must re-zero everything.
  arena.reset(2, 50);
  EXPECT_EQ(arena.row(1).size(), 50u);
  arena.reset(4, 100);
  for (std::size_t i = 0; i < 4; ++i) {
    for (const std::int32_t v : arena.row(i)) EXPECT_EQ(v, 0);
  }
}

class SeededKernelCity : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  poi::City city() const {
    return poi::generate_city(poi::test_preset(), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededKernelCity,
                         ::testing::Values(1u, 7u, 21u, 42u));

TEST_P(SeededKernelCity, FreqIntoAndFreqBatchMatchFreq) {
  const poi::City c = city();
  common::Rng rng(GetParam() * 131 + 3);
  std::vector<geo::Point> centers;
  for (int i = 0; i < 12; ++i) {
    centers.push_back({rng.uniform(-1.0, 9.0), rng.uniform(-1.0, 9.0)});
  }
  const double r = rng.uniform(0.2, 2.0);

  poi::FreqArena arena;
  c.db.freq_batch(centers, r, arena);
  ASSERT_EQ(arena.rows(), centers.size());
  ASSERT_EQ(arena.row_len(), c.db.num_types());

  FrequencyVector reused;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    const FrequencyVector direct = c.db.freq(centers[i], r);
    c.db.freq_into(centers[i], r, reused);  // reused across iterations
    EXPECT_EQ(reused, direct);
    EXPECT_TRUE(std::equal(direct.begin(), direct.end(),
                           arena.row(i).begin(), arena.row(i).end()));
  }
}

// The pruning invariant: the tile envelope dominates any contained disk.
TEST_P(SeededKernelCity, TileEnvelopeDominatesAnyContainedDisk) {
  const poi::City c = city();
  const poi::TileAggregates& tiles = c.db.tile_aggregates();
  common::Rng rng(GetParam() * 977 + 5);
  for (int trial = 0; trial < 25; ++trial) {
    // Probes include points outside the bounds (clamped binning must stay
    // sound there too).
    const geo::Point p{rng.uniform(-2.0, 10.0), rng.uniform(-2.0, 10.0)};
    const double r = rng.uniform(0.1, 3.0);
    const FrequencyVector f = c.db.freq(p, r);
    EXPECT_GE(tiles.total_upper_bound(p, r), poi::total(f));
    for (poi::TypeId t = 0; t < f.size(); ++t) {
      ASSERT_GE(tiles.type_upper_bound(p, r, t), f[t])
          << "probe (" << p.x << ", " << p.y << ") r=" << r << " type=" << t;
    }
  }
}

// End-to-end exactness: the pruned re-identification loop must produce
// exactly the candidates of the unpruned brute force.
TEST_P(SeededKernelCity, PrunedReidMatchesBruteForce) {
  const poi::City c = city();
  const attack::RegionReidentifier reid(c.db);
  common::Rng rng(GetParam() * 53 + 17);
  for (int trial = 0; trial < 15; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.4, 1.6);
    const FrequencyVector released = c.db.freq(l, r);
    const attack::ReidResult result = reid.infer(released, r);
    if (!result.pivot_type) continue;

    std::vector<poi::PoiId> brute;
    for (const poi::PoiId id : c.db.pois_of_type(*result.pivot_type)) {
      if (poi::scalar_ref::dominates(c.db.freq(c.db.poi(id).pos, 2.0 * r),
                                     released)) {
        brute.push_back(id);
      }
    }
    EXPECT_EQ(result.candidates, brute);
  }
}

// The tolerant-prune lemma the robust attack relies on: when even the
// envelope plus the allowed deficit cannot reach the released total, the
// tolerant dominance test must fail.
TEST_P(SeededKernelCity, TolerantPruneBoundIsSound) {
  const poi::City c = city();
  const poi::TileAggregates& tiles = c.db.tile_aggregates();
  common::Rng rng(GetParam() * 211 + 29);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const geo::Point p{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.4, 1.6);
    const FrequencyVector released = c.db.freq(l, r);
    const std::int32_t max_deficit = 3;
    if (tiles.total_upper_bound(p, 2.0 * r) + max_deficit <
        poi::total(released)) {
      EXPECT_FALSE(attack::dominates_tolerant(c.db.freq(p, 2.0 * r), released,
                                              /*max_violations=*/released.size(),
                                              max_deficit));
    }
  }
}

}  // namespace
}  // namespace poiprivacy
