// Smoke-regression goldens for the three figure pipelines (fig02
// sanitization recovery, fig05 k-cloaking, fig11 DP defense) on a tiny
// fixed synthetic city. The exact numbers below were captured from a
// trusted run at seed 4242; any behavioural drift in the attack, defense,
// cloaking, sanitization or evaluation layers shows up here as a diff of
// a handful of integers, not a silent accuracy regression.
//
// Integer counters must match exactly; accumulated doubles use
// EXPECT_NEAR with 1e-9 (bit-identical in practice — the tolerance only
// hides long-double vs double platform noise).
//
// Every test builds a fresh Workbench so the anchor-cache deltas in
// AttackStats are independent of test ordering.
#include <gtest/gtest.h>

#include <vector>

#include "attack/recovery.h"
#include "cloak/kcloak.h"
#include "common/parallel.h"
#include "defense/location_defenses.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "eval/datasets.h"
#include "eval/runner.h"

namespace poiprivacy {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr double kRangeKm = 2.0;

eval::WorkbenchConfig tiny_config() {
  eval::WorkbenchConfig config;
  config.seed = kSeed;
  config.locations_per_dataset = 40;
  config.num_taxis = 8;
  config.points_per_taxi = 15;
  config.num_checkin_users = 8;
  config.checkins_per_user = 8;
  return config;
}

TEST(GoldenRegression, Fig02SanitizationRecoveryAccuracy) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const defense::Sanitizer sanitizer(db, 10);
  ASSERT_GE(sanitizer.sanitized_types().size(), 3u);
  const std::vector<poi::TypeId> types(sanitizer.sanitized_types().begin(),
                                       sanitizer.sanitized_types().begin() + 3);

  attack::RecoveryConfig config;
  config.train_samples = 60;
  config.validation_samples = 30;
  config.samples_per_rare_poi = 1;
  common::Rng rng(kSeed + 5);
  const attack::SanitizationRecovery recovery(db, types, kRangeKm, config,
                                              rng);
  const std::vector<double>& acc = recovery.validation_accuracies();
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_NEAR(recovery.mean_validation_accuracy(), 0.9888888888888889, 1e-9);
  EXPECT_NEAR(acc[0], 0.9666666666666667, 1e-9);
  EXPECT_NEAR(acc[1], 1.0, 1e-9);
  EXPECT_NEAR(acc[2], 1.0, 1e-9);
}

TEST(GoldenRegression, Fig05BaselineAndKCloakAttack) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto& locations = bench.locations(eval::DatasetKind::kBeijingRandom);

  const eval::AttackStats base = eval::evaluate_attack(
      db, locations, kRangeKm, eval::identity_release(db));
  EXPECT_EQ(base.attempts, 40u);
  EXPECT_EQ(base.empty_releases, 0u);
  EXPECT_EQ(base.unique, 23u);
  EXPECT_EQ(base.correct, 23u);
  // Region re-id makes one anchor-cache lookup per release with a pivot:
  // the type block of (pivot type, 2r), which covers every candidate at
  // once. 40 attempts over 36 distinct pivot types give 36 misses and 4
  // hits (the per-candidate lookups before it pinned 16 / 203). The attack
  // outcomes above are unchanged: the block holds the same counts the
  // per-candidate dominance test read.
  EXPECT_EQ(base.cache_hits, 4u);
  EXPECT_EQ(base.cache_misses, 36u);
  EXPECT_TRUE(base.counters_consistent());

  common::Rng pop_rng(kSeed + 101);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 300, pop_rng), db.bounds());
  const defense::KCloakDefense defense(db, cloaker, 10);
  const eval::AttackStats cloaked = eval::evaluate_attack(
      db, locations, kRangeKm, [&defense](geo::Point l, double radius) {
        return defense.release(l, radius);
      });
  EXPECT_EQ(cloaked.attempts, 40u);
  EXPECT_EQ(cloaked.empty_releases, 0u);
  EXPECT_EQ(cloaked.unique, 27u);
  EXPECT_EQ(cloaked.correct, 5u);
  EXPECT_TRUE(cloaked.counters_consistent());
  // Cloaking must strictly weaken the attack on this workload.
  EXPECT_LT(cloaked.correct, base.correct);
}

TEST(GoldenRegression, Fig11DpDefenseAttackAndUtility) {
  const eval::Workbench bench(tiny_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto& locations = bench.locations(eval::DatasetKind::kBeijingRandom);

  common::Rng pop_rng(kSeed + 31);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 300, pop_rng), db.bounds());
  defense::DpDefenseConfig config;
  config.k = 12;
  config.epsilon = 1.0;
  config.delta = 0.2;
  config.beta = 0.02;
  const defense::DpDefense defense(db, cloaker, config);
  const std::uint64_t release_seed = kSeed + 1234;
  const eval::SeededReleaseFn release =
      [&](geo::Point l, double radius, common::Rng& rng) {
        return defense.release(l, radius, rng);
      };

  const eval::AttackStats attack =
      eval::evaluate_attack(db, locations, kRangeKm, release, release_seed);
  EXPECT_EQ(attack.attempts, 40u);
  EXPECT_EQ(attack.empty_releases, 0u);
  EXPECT_EQ(attack.unique, 2u);
  EXPECT_EQ(attack.correct, 0u);
  EXPECT_TRUE(attack.counters_consistent());

  const eval::UtilityStats utility =
      eval::evaluate_utility(db, locations, kRangeKm, release, release_seed);
  EXPECT_EQ(utility.samples, 40u);
  EXPECT_NEAR(utility.mean_jaccard, 0.4475048480930832, 1e-9);
}

}  // namespace
}  // namespace poiprivacy
