// Property tests for the batched frequency-kernel engine:
//
//   * every vectorized kernel (dominates, dominates_early_exit,
//     l1_distance, diff_into, total, top_k_jaccard, fold_counts) against
//     its scalar reference oracle on seeded random inputs, including the
//     edge shapes the kernels special-case: empty vectors, length 1, odd
//     lengths, all-zero rows, and saturating INT32_MAX counts;
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
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "attack/region_reid.h"
#include "attack/robust_reid.h"
#include "common/rng.h"
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

// The fold kernel's per-tier sweep, in-process across every tier the
// host can execute (the per-tier ctest entries repeat it end to end).
TEST(KernelTierSweep, FoldCountsMatchesScalarOracleOnEveryTier) {
  TierGuard guard;
  for (const poi::KernelTier tier : poi::available_kernel_tiers()) {
    ASSERT_TRUE(poi::set_kernel_tier(tier));
    SCOPED_TRACE(std::string("tier ") +
                 std::string(poi::kernel_tier_name(tier)));
    run_fold_sweep();
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
