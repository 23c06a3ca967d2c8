#include <cmath>

#include <gtest/gtest.h>

#include "cloak/kcloak.h"
#include "common/rng.h"
#include "common/stats.h"
#include "defense/opt_defense.h"
#include "dp/ledger.h"
#include "dp/discrete.h"
#include "poi/city_model.h"

namespace poiprivacy::dp {
namespace {

TEST(GeometricMechanism, RejectsBadParameters) {
  EXPECT_THROW(GeometricMechanism(0.0, 1), std::invalid_argument);
  EXPECT_THROW(GeometricMechanism(1.0, 0), std::invalid_argument);
}

TEST(GeometricMechanism, NoiseIsCenteredIntegerValued) {
  const GeometricMechanism mech(1.0, 1);
  common::Rng rng(11);
  common::RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(mech.perturb(100, rng)));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 0.05);
  // Var of two-sided geometric with alpha: 2 alpha / (1-alpha)^2.
  const double alpha = mech.alpha();
  const double expected_var = 2.0 * alpha / ((1.0 - alpha) * (1.0 - alpha));
  EXPECT_NEAR(stats.variance(), expected_var, expected_var * 0.1);
}

TEST(GeometricMechanism, SmallerEpsilonMeansMoreNoise) {
  common::Rng rng_a(13);
  common::Rng rng_b(13);
  const GeometricMechanism tight(0.1, 1);
  const GeometricMechanism loose(2.0, 1);
  double tight_abs = 0.0;
  double loose_abs = 0.0;
  for (int i = 0; i < 20000; ++i) {
    tight_abs += std::abs(tight.perturb(0, rng_a));
    loose_abs += std::abs(loose.perturb(0, rng_b));
  }
  EXPECT_GT(tight_abs, 4.0 * loose_abs);
}

namespace {

// The historical PrivacyAccountant had no ceiling; an unbounded basic
// exact ledger is its drop-in replacement.
Ledger basic_ledger() { return Ledger(LedgerConfig{}); }

Ledger windowed_ledger(WindowPolicy window) {
  return Ledger(
      LedgerConfig{.policy = LedgerPolicy::kWindowedRenewal, .window = window});
}

}  // namespace

TEST(Ledger, BasicCompositionSums) {
  Ledger ledger = basic_ledger();
  ledger.charge({1.0, 0.1});
  ledger.charge({0.5, 0.05});
  EXPECT_EQ(ledger.releases(), 2u);
  const PrivacyParams total = ledger.basic_composition();
  EXPECT_DOUBLE_EQ(total.epsilon, 1.5);
  EXPECT_DOUBLE_EQ(total.delta, 0.15000000000000002);
}

TEST(Ledger, RejectsInvalidCharge) {
  Ledger ledger = basic_ledger();
  EXPECT_THROW(ledger.charge({0.0, 0.1}), std::invalid_argument);
  EXPECT_THROW(ledger.charge({1.0, 1.0}), std::invalid_argument);
}

TEST(Ledger, AdvancedBeatsBasicForManySmallReleases) {
  Ledger ledger = basic_ledger();
  const double eps = 0.1;
  for (int i = 0; i < 100; ++i) ledger.charge({eps, 0.0});
  const PrivacyParams basic = ledger.basic_composition();
  const PrivacyParams advanced = ledger.advanced_composition(1e-5);
  EXPECT_NEAR(basic.epsilon, 10.0, 1e-9);
  EXPECT_LT(advanced.epsilon, basic.epsilon);
}

TEST(Ledger, AdvancedMatchesClosedForm) {
  Ledger ledger = basic_ledger();
  const double eps = 0.2;
  const int k = 50;
  for (int i = 0; i < k; ++i) ledger.charge({eps, 0.01});
  const double delta_prime = 1e-6;
  const PrivacyParams advanced = ledger.advanced_composition(delta_prime);
  const double expected =
      eps * std::sqrt(2.0 * k * std::log(1.0 / delta_prime)) +
      k * eps * (std::exp(eps) - 1.0);
  EXPECT_NEAR(advanced.epsilon, expected, 1e-12);
  EXPECT_NEAR(advanced.delta, 0.5 + delta_prime, 1e-12);
}

TEST(Ledger, AdvancedHeterogeneousComposesPerEpsilonGroup) {
  Ledger ledger = basic_ledger();
  for (int i = 0; i < 30; ++i) ledger.charge({0.5, 0.01});
  for (int i = 0; i < 20; ++i) ledger.charge({0.1, 0.0});
  EXPECT_EQ(ledger.epsilon_groups(), 2u);
  const double delta_prime = 1e-6;
  // Each epsilon group gets Thm 3.20 under half the slack; the group
  // bounds then sum.
  const auto group = [](double eps, double k, double slack) {
    return eps * std::sqrt(2.0 * k * std::log(1.0 / slack)) +
           k * eps * (std::exp(eps) - 1.0);
  };
  const double slack = delta_prime / 2.0;
  const PrivacyParams advanced = ledger.advanced_composition(delta_prime);
  EXPECT_NEAR(advanced.epsilon,
              group(0.5, 30.0, slack) + group(0.1, 20.0, slack), 1e-12);
  EXPECT_NEAR(advanced.delta, 30 * 0.01 + delta_prime, 1e-12);
}

TEST(Ledger, AdvancedHeterogeneousStillBeatsBasic) {
  Ledger ledger = basic_ledger();
  for (int i = 0; i < 120; ++i) ledger.charge({0.05, 0.0});
  for (int i = 0; i < 80; ++i) ledger.charge({0.02, 0.0});
  const PrivacyParams basic = ledger.basic_composition();
  const PrivacyParams advanced = ledger.advanced_composition(1e-6);
  EXPECT_NEAR(basic.epsilon, 120 * 0.05 + 80 * 0.02, 1e-9);
  EXPECT_LT(advanced.epsilon, basic.epsilon);
}

TEST(Ledger, SingleEpsilonGroupMatchesHomogeneousFormula) {
  // A homogeneous history must be unaffected by the grouping machinery:
  // one group gets the whole slack, i.e. plain Thm 3.20.
  Ledger grouped = basic_ledger();
  for (int i = 0; i < 40; ++i) grouped.charge({0.3, 0.001});
  EXPECT_EQ(grouped.epsilon_groups(), 1u);
  const double delta_prime = 1e-5;
  const double expected =
      0.3 * std::sqrt(2.0 * 40 * std::log(1.0 / delta_prime)) +
      40 * 0.3 * (std::exp(0.3) - 1.0);
  EXPECT_NEAR(grouped.advanced_composition(delta_prime).epsilon, expected,
              1e-12);
}

TEST(Ledger, AdvancedRejectsBadSlack) {
  Ledger ledger = basic_ledger();
  ledger.charge({1.0, 0.0});
  EXPECT_THROW(ledger.advanced_composition(0.0), std::invalid_argument);
  EXPECT_THROW(ledger.advanced_composition(1.0), std::invalid_argument);
}

TEST(Ledger, EmptyLedgerIsFree) {
  Ledger ledger = basic_ledger();
  EXPECT_DOUBLE_EQ(ledger.basic_composition().epsilon, 0.0);
  EXPECT_DOUBLE_EQ(ledger.advanced_composition(0.5).epsilon, 0.0);
}

TEST(WindowedLedger, RejectsBadPolicy) {
  EXPECT_THROW(windowed_ledger({0, 1.0}), std::invalid_argument);
  EXPECT_THROW(windowed_ledger({4, -1.0}), std::invalid_argument);
}

TEST(WindowedLedger, EpochsMapOntoFixedWindows) {
  const Ledger ledger = windowed_ledger({4, 0.0});
  EXPECT_EQ(ledger.window_of(0), 0u);
  EXPECT_EQ(ledger.window_of(3), 0u);
  EXPECT_EQ(ledger.window_of(4), 1u);  // boundary epoch opens window 1
  EXPECT_EQ(ledger.window_of(7), 1u);
  EXPECT_EQ(ledger.window_of(8), 2u);
}

TEST(WindowedLedger, ComposesPerWindowAndAcrossLifetime) {
  Ledger ledger = windowed_ledger({2, 0.0});
  ledger.charge({0.5, 0.0}, 0);
  ledger.charge({0.5, 0.0}, 1);
  ledger.charge({1.0, 0.01}, 2);
  EXPECT_EQ(ledger.releases(), 3u);
  EXPECT_EQ(ledger.windows_touched(), 2u);
  EXPECT_DOUBLE_EQ(ledger.window_composition(0).epsilon, 1.0);
  EXPECT_DOUBLE_EQ(ledger.window_composition(1).epsilon, 1.0);
  EXPECT_DOUBLE_EQ(ledger.window_composition(1).delta, 0.01);
  EXPECT_DOUBLE_EQ(ledger.window_composition(7).epsilon, 0.0);
  EXPECT_DOUBLE_EQ(ledger.lifetime_composition().epsilon, 2.0);
  EXPECT_DOUBLE_EQ(ledger.lifetime_composition().delta, 0.01);
  EXPECT_DOUBLE_EQ(ledger.peak_window_composition().epsilon, 1.0);
}

TEST(WindowedLedger, BudgetRenewsExactlyAtWindowBoundary) {
  Ledger ledger = windowed_ledger({4, 1.0});
  // Fill window 0's budget exactly: charging to the budget is allowed,
  // one more infinitesimal release is not.
  ledger.charge({0.5, 0.0}, 0);
  EXPECT_FALSE(ledger.would_exceed({0.5, 0.0}, 3));
  ledger.charge({0.5, 0.0}, 3);
  EXPECT_TRUE(ledger.would_exceed({0.001, 0.0}, 3));
  EXPECT_THROW(ledger.charge({0.001, 0.0}, 2), std::runtime_error);
  // Epoch 4 is the first epoch of window 1: full budget again.
  EXPECT_FALSE(ledger.would_exceed({1.0, 0.0}, 4));
  ledger.charge({1.0, 0.0}, 4);
  EXPECT_TRUE(ledger.would_exceed({0.001, 0.0}, 4));
  // The failed charge must not have charged anything anywhere.
  EXPECT_DOUBLE_EQ(ledger.window_composition(0).epsilon, 1.0);
  EXPECT_DOUBLE_EQ(ledger.window_composition(1).epsilon, 1.0);
  EXPECT_EQ(ledger.releases(), 3u);
}

TEST(WindowedLedger, TryChargeRefusesInsteadOfThrowing) {
  Ledger ledger = windowed_ledger({4, 1.0});
  EXPECT_TRUE(ledger.try_charge({1.0, 0.0}, 0));
  EXPECT_FALSE(ledger.try_charge({0.001, 0.0}, 0));
  EXPECT_FALSE(ledger.try_charge({-1.0, 0.0}, 0));
  EXPECT_EQ(ledger.releases(), 1u);
  // record() bypasses the budget check (out-of-band bookkeeping)...
  ledger.record({0.5, 0.0}, 0);
  EXPECT_EQ(ledger.releases(), 2u);
  EXPECT_DOUBLE_EQ(ledger.window_composition(0).epsilon, 1.5);
  // ...but still validates.
  EXPECT_THROW(ledger.record({0.0, 0.0}, 0), std::invalid_argument);
}

TEST(WindowedLedger, UnboundedBudgetNeverExceeds) {
  Ledger ledger = windowed_ledger({1, 0.0});
  for (std::size_t epoch = 0; epoch < 16; ++epoch) {
    EXPECT_FALSE(ledger.would_exceed({100.0, 0.0}, epoch));
    ledger.charge({100.0, 0.0}, epoch);
  }
  EXPECT_EQ(ledger.windows_touched(), 16u);
  EXPECT_DOUBLE_EQ(ledger.peak_window_composition().epsilon, 100.0);
  EXPECT_DOUBLE_EQ(ledger.lifetime_composition().epsilon, 1600.0);
}

TEST(WindowedLedger, WindowAdvancedCompositionUsesEpsilonGroups) {
  Ledger ledger = windowed_ledger({8, 0.0});
  Ledger reference = basic_ledger();
  for (int i = 0; i < 6; ++i) {
    ledger.charge({0.1, 0.0}, 0);
    reference.charge({0.1, 0.0});
  }
  const PrivacyParams windowed = ledger.window_advanced_composition(0, 1e-6);
  const PrivacyParams expected = reference.advanced_composition(1e-6);
  EXPECT_DOUBLE_EQ(windowed.epsilon, expected.epsilon);
  EXPECT_DOUBLE_EQ(windowed.delta, expected.delta);
  // An untouched window only pays the slack.
  EXPECT_DOUBLE_EQ(ledger.window_advanced_composition(3, 1e-6).epsilon, 0.0);
}

TEST(WindowedLedger, InvalidChargeDoesNotTouchWindow) {
  Ledger ledger = windowed_ledger({2, 0.0});
  EXPECT_THROW(ledger.charge({0.0, 0.0}, 0), std::invalid_argument);
  EXPECT_EQ(ledger.releases(), 0u);
  EXPECT_EQ(ledger.windows_touched(), 0u);
}

// Budget-managed release sessions: a dp::Ledger with ceilings gating a
// DpDefense, run the way examples/budget_session runs it — would_exceed,
// then release, then record.
class LedgerSession : public ::testing::Test {
 protected:
  static LedgerConfig ceilings(double epsilon, double delta, double slack) {
    return {.policy = slack > 0.0 ? LedgerPolicy::kAdvancedHeterogeneous
                                  : LedgerPolicy::kBasic,
            .epsilon_ceiling = epsilon,
            .delta_ceiling = delta,
            .advanced_slack = slack,
            .window = {}};
  }

  /// Releases granted out of `attempts` queries at (4, 4), r = 1 km.
  int granted(Ledger& ledger, PrivacyParams per_release, int attempts,
              std::uint64_t seed) const {
    defense::DpDefenseConfig config;
    config.epsilon = per_release.epsilon;
    config.delta = per_release.delta;
    const defense::DpDefense defense(city_.db, cloaker_, config);
    common::Rng rng(seed);
    int grants = 0;
    for (int i = 0; i < attempts; ++i) {
      if (ledger.would_exceed(per_release)) continue;
      const poi::FrequencyVector released = defense.release({4.0, 4.0}, 1.0,
                                                            rng);
      EXPECT_EQ(released.size(), city_.db.num_types());
      ledger.record(per_release);
      ++grants;
    }
    return grants;
  }

  const poi::City city_ = poi::generate_city(poi::test_preset(), 7);
  const cloak::AdaptiveIntervalCloaker cloaker_ = [this] {
    common::Rng rng(3);
    return cloak::AdaptiveIntervalCloaker(
        cloak::uniform_population(city_.db.bounds(), 500, rng),
        city_.db.bounds());
  }();
};

TEST_F(LedgerSession, BasicEpsilonCeilingGrantsThree) {
  Ledger ledger(ceilings(3.5, 1.0, 0.0));
  EXPECT_EQ(ledger.releases(), 0u);
  EXPECT_DOUBLE_EQ(ledger.spent().epsilon, 0.0);
  // eps ceiling 3.5 with 1.0 per release -> exactly 3 releases.
  EXPECT_EQ(granted(ledger, {1.0, 0.05}, 10, 5), 3);
  EXPECT_EQ(ledger.releases(), 3u);
  EXPECT_TRUE(ledger.would_exceed({1.0, 0.05}));
  EXPECT_NEAR(ledger.spent().epsilon, 3.0, 1e-9);
  EXPECT_NEAR(ledger.spent().delta, 0.15, 1e-9);
}

TEST_F(LedgerSession, DeltaCeilingAlsoStops) {
  Ledger ledger(ceilings(100.0, 0.5, 0.0));
  EXPECT_EQ(granted(ledger, {0.1, 0.2}, 10, 7), 2);  // 3 * 0.2 > 0.5
}

TEST_F(LedgerSession, AdvancedCompositionGrantsMoreSmallReleases) {
  Ledger basic(ceilings(2.0, 1.0, 0.0));
  Ledger advanced(ceilings(2.0, 1.0, 1e-6));
  const int basic_grants = granted(basic, {0.01, 1e-5}, 1600, 9);
  const int advanced_grants = granted(advanced, {0.01, 1e-5}, 1600, 9);
  // Basic composition caps out around ceiling / eps = 200 releases
  // (floating-point summation may shave one off); sqrt-scaling advanced
  // composition grants several times more.
  EXPECT_GE(basic_grants, 199);
  EXPECT_LE(basic_grants, 200);
  EXPECT_GT(advanced_grants, 2 * basic_grants);
}

TEST_F(LedgerSession, RemainingShrinksWithSpendAndClampsAtZero) {
  Ledger ledger(ceilings(2.5, 1.0, 0.0));
  EXPECT_DOUBLE_EQ(ledger.remaining().epsilon, 2.5);
  EXPECT_DOUBLE_EQ(ledger.remaining().delta, 1.0);
  ledger.record({1.0, 0.05});
  EXPECT_NEAR(ledger.remaining().epsilon, 1.5, 1e-12);
  EXPECT_NEAR(ledger.remaining().delta, 0.95, 1e-12);
  ledger.record({1.0, 0.05});
  ledger.record({1.0, 0.05});
  // Spent (3.0) exceeds the 2.5 ceiling; remaining clamps at zero.
  EXPECT_DOUBLE_EQ(ledger.remaining().epsilon, 0.0);
}

TEST_F(LedgerSession, WouldExceedGatesWithoutThrowing) {
  Ledger ledger(ceilings(2.0, 1.0, 0.0));
  EXPECT_FALSE(ledger.would_exceed({1.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({2.5, 0.0}));
  // A cheaper policy can still fit after the nominal one no longer does.
  ledger.record({1.0, 0.0});
  ledger.record({0.5, 0.0});
  EXPECT_TRUE(ledger.would_exceed({1.0, 0.0}));
  EXPECT_FALSE(ledger.would_exceed({0.5, 0.0}));

  // Invalid parameters are never admissible but must not throw.
  EXPECT_TRUE(ledger.would_exceed({0.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({-1.0, 0.0}));
  EXPECT_TRUE(ledger.would_exceed({0.5, 1.0}));
}

}  // namespace
}  // namespace poiprivacy::dp
