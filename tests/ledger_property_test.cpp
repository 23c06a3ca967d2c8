// Property suite for the two budget ledgers: dp::Ledger (the exact
// accountant of the eval/mia paths) and the serving layer's per-user
// fixed-point budget (service::SessionTable on dp::FixedBudget).
//
// The Ledger replaced two disjoint exact accounting stacks (the
// historical PrivacyAccountant and WindowedAccountant). This suite
// replays 200 seeded random charge schedules against verbatim in-test
// ports of the legacy accountants as oracles and asserts:
//
//   1. the Ledger makes the SAME admit/deny decision and composes to the
//      SAME (bit-identical) totals as the legacy code;
//   2. the session table is never LOOSER than an exact kBasic Ledger
//      with the same ceilings — it never admits a charge the Ledger
//      denies — and its remaining budget tracks the Ledger's within the
//      documented quantization bound;
//   3. concurrent charges against one session-table user conserve
//      budget (run under TSan via the `tsan` ctest label).
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dp/budget.h"
#include "dp/ledger.h"
#include "service/session_table.h"

namespace poiprivacy::dp {
namespace {

// ---------------------------------------------------------------------------
// Legacy oracles: line-for-line ports of the deleted accountants
// (src/dp/accountant.{h,cpp} before the dp::Ledger refactor). Keep these
// in sync with nothing — they are frozen history.
// ---------------------------------------------------------------------------

double legacy_advanced_epsilon(double eps, double k, double delta_prime) {
  return eps * std::sqrt(2.0 * k * std::log(1.0 / delta_prime)) +
         k * eps * (std::exp(eps) - 1.0);
}

/// The historical PrivacyAccountant: unbounded exact sums plus the
/// heterogeneous advanced bound (slack split across epsilon groups).
class LegacyAccountant {
 public:
  void spend(PrivacyParams params) {
    if (params.epsilon <= 0.0 || params.delta < 0.0 || params.delta >= 1.0) {
      throw std::invalid_argument("legacy: invalid spend");
    }
    ++releases_;
    epsilon_sum_ += params.epsilon;
    delta_sum_ += params.delta;
    ++by_epsilon_[params.epsilon];
  }

  std::size_t releases() const { return releases_; }

  PrivacyParams basic_composition() const { return {epsilon_sum_, delta_sum_}; }

  PrivacyParams advanced_composition(double delta_prime) const {
    if (delta_prime <= 0.0 || delta_prime >= 1.0) {
      throw std::invalid_argument("legacy: bad slack");
    }
    if (releases_ == 0) return {0.0, delta_prime};
    const double group_slack =
        delta_prime / static_cast<double>(by_epsilon_.size());
    double advanced = 0.0;
    for (const auto& [eps, count] : by_epsilon_) {
      advanced +=
          legacy_advanced_epsilon(eps, static_cast<double>(count), group_slack);
    }
    return {advanced, delta_sum_ + delta_prime};
  }

 private:
  std::size_t releases_ = 0;
  double epsilon_sum_ = 0.0;
  double delta_sum_ = 0.0;
  std::map<double, std::size_t> by_epsilon_;
};

/// The historical WindowedAccountant: per-window budget renewal.
class LegacyWindowedAccountant {
 public:
  explicit LegacyWindowedAccountant(WindowPolicy policy) : policy_(policy) {
    if (policy_.window_epochs == 0) {
      throw std::invalid_argument("legacy: window_epochs must be positive");
    }
    if (policy_.epsilon_budget < 0.0) {
      throw std::invalid_argument("legacy: negative budget");
    }
  }

  std::size_t window_of(std::size_t epoch) const {
    return epoch / policy_.window_epochs;
  }

  bool would_exceed(std::size_t epoch, double epsilon) const {
    if (policy_.epsilon_budget <= 0.0) return false;
    const auto it = windows_.find(window_of(epoch));
    const double spent = it == windows_.end() ? 0.0 : it->second.epsilon_sum;
    return spent + epsilon > policy_.epsilon_budget;
  }

  void spend(std::size_t epoch, PrivacyParams params) {
    if (params.epsilon <= 0.0 || params.delta < 0.0 || params.delta >= 1.0) {
      throw std::invalid_argument("legacy: invalid spend");
    }
    if (would_exceed(epoch, params.epsilon)) {
      throw std::runtime_error("legacy: window budget exhausted");
    }
    auto& window = windows_[window_of(epoch)];
    ++window.releases;
    window.epsilon_sum += params.epsilon;
    window.delta_sum += params.delta;
    ++releases_;
  }

  std::size_t releases() const { return releases_; }
  std::size_t windows_touched() const { return windows_.size(); }

  PrivacyParams window_composition(std::size_t window) const {
    const auto it = windows_.find(window);
    if (it == windows_.end()) return {0.0, 0.0};
    return {it->second.epsilon_sum, it->second.delta_sum};
  }

  PrivacyParams peak_window_composition() const {
    PrivacyParams peak{0.0, 0.0};
    for (const auto& [window, group] : windows_) {
      if (group.epsilon_sum > peak.epsilon) {
        peak = {group.epsilon_sum, group.delta_sum};
      }
    }
    return peak;
  }

  PrivacyParams lifetime_composition() const {
    PrivacyParams total{0.0, 0.0};
    for (const auto& [window, group] : windows_) {
      total.epsilon += group.epsilon_sum;
      total.delta += group.delta_sum;
    }
    return total;
  }

 private:
  struct Window {
    std::size_t releases = 0;
    double epsilon_sum = 0.0;
    double delta_sum = 0.0;
  };
  WindowPolicy policy_;
  std::map<std::size_t, Window> windows_;
  std::size_t releases_ = 0;
};

// ---------------------------------------------------------------------------
// Schedule generation. The palette mixes unit-exact values (the shipped
// policies — exercising the snap path) with irrational-ish ones
// (exercising strict ceil/floor).
// ---------------------------------------------------------------------------

constexpr int kSeeds = 200;

PrivacyParams random_params(common::Rng& rng) {
  static const double kEpsilons[] = {0.05,  0.1,  0.25,          0.5,
                                     1.0,   2.0,  1.0 / 3.0,     0.123456789,
                                     7e-7, 1e-6, 0.2718281828};
  static const double kDeltas[] = {0.0, 0.001, 0.01, 1e-12, 0.05, 1.0 / 3e3};
  return {kEpsilons[rng.uniform_int(0, 10)], kDeltas[rng.uniform_int(0, 5)]};
}

// ---------------------------------------------------------------------------
// 1. Ledger vs the legacy accountants: bit-identical.
// ---------------------------------------------------------------------------

TEST(LedgerOracle, ExactBasicMatchesLegacyAccountantBitForBit) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(1000 + seed);
    Ledger ledger(LedgerConfig{});  // unbounded basic
    LegacyAccountant oracle;
    const int charges = static_cast<int>(rng.uniform_int(1, 64));
    for (int i = 0; i < charges; ++i) {
      const PrivacyParams params = random_params(rng);
      ledger.charge(params);
      oracle.spend(params);
    }
    ASSERT_EQ(ledger.releases(), oracle.releases());
    ASSERT_EQ(ledger.basic_composition().epsilon,
              oracle.basic_composition().epsilon);
    ASSERT_EQ(ledger.basic_composition().delta,
              oracle.basic_composition().delta);
    ASSERT_EQ(ledger.epsilon_groups() > 0, true);
    const double slack = 1e-6;
    ASSERT_EQ(ledger.advanced_composition(slack).epsilon,
              oracle.advanced_composition(slack).epsilon);
    ASSERT_EQ(ledger.advanced_composition(slack).delta,
              oracle.advanced_composition(slack).delta);
  }
}

TEST(LedgerOracle, WindowedRenewalMatchesLegacyWindowedAccountant) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(2000 + seed);
    const WindowPolicy policy{
        static_cast<std::size_t>(rng.uniform_int(1, 6)),
        rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.5, 4.0)};
    Ledger ledger(LedgerConfig{.policy = LedgerPolicy::kWindowedRenewal,
                               .window = policy});
    LegacyWindowedAccountant oracle(policy);
    const int charges = static_cast<int>(rng.uniform_int(1, 64));
    for (int i = 0; i < charges; ++i) {
      const PrivacyParams params = random_params(rng);
      const auto epoch = static_cast<std::size_t>(rng.uniform_int(0, 31));
      // Same admit/deny decision...
      const bool oracle_deny = oracle.would_exceed(epoch, params.epsilon);
      ASSERT_EQ(ledger.would_exceed(params, epoch), oracle_deny)
          << "seed " << seed << " charge " << i;
      // ...and the same effect on the same state.
      if (oracle_deny) {
        ASSERT_THROW(ledger.charge(params, epoch), std::runtime_error);
        ASSERT_THROW(oracle.spend(epoch, params), std::runtime_error);
      } else {
        ledger.charge(params, epoch);
        oracle.spend(epoch, params);
      }
    }
    ASSERT_EQ(ledger.releases(), oracle.releases());
    ASSERT_EQ(ledger.windows_touched(), oracle.windows_touched());
    for (std::size_t w = 0; w < 32; ++w) {
      ASSERT_EQ(ledger.window_composition(w).epsilon,
                oracle.window_composition(w).epsilon);
      ASSERT_EQ(ledger.window_composition(w).delta,
                oracle.window_composition(w).delta);
    }
    ASSERT_EQ(ledger.peak_window_composition().epsilon,
              oracle.peak_window_composition().epsilon);
    ASSERT_EQ(ledger.lifetime_composition().epsilon,
              oracle.lifetime_composition().epsilon);
    ASSERT_EQ(ledger.lifetime_composition().delta,
              oracle.lifetime_composition().delta);
  }
}

// ---------------------------------------------------------------------------
// 2. Session-table tightness: never looser than the exact basic Ledger.
// ---------------------------------------------------------------------------

constexpr service::UserId kUser = 7;

service::SessionTable session_table(double epsilon_ceiling,
                                    double delta_ceiling) {
  return service::SessionTable(
      service::SessionTableConfig{.capacity = 64,
                                  .shards = 4,
                                  .epsilon_ceiling = epsilon_ceiling,
                                  .delta_ceiling = delta_ceiling});
}

TEST(LedgerTightness, FixedNeverAdmitsWhatExactDenies) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(3000 + seed);
    // Continuous (never unit-exact) costs and ceilings: the strict
    // ceil/floor regime, where the directional guarantee is exact.
    const double eps_ceiling = rng.uniform(0.2, 6.0);
    const double delta_ceiling = rng.uniform(0.01, 0.4);
    service::SessionTable table = session_table(eps_ceiling, delta_ceiling);
    Ledger exact(LedgerConfig{.policy = LedgerPolicy::kBasic,
                              .epsilon_ceiling = eps_ceiling,
                              .delta_ceiling = delta_ceiling,
                              .window = {}});
    std::size_t admitted = 0;
    for (int i = 0; i < 96; ++i) {
      const PrivacyParams params{rng.uniform(1e-4, 1.0),
                                 rng.uniform(0.0, 0.02)};
      // The serving layer admits on the session table's meter; the exact
      // ledger is the bookkeeping shadow. Tightness: whatever the meter
      // lets through, the exact accountant would have let through too.
      if (table.try_charge(kUser, FixedBudget::cost_of(params)) !=
          service::ChargeOutcome::kCharged) {
        continue;
      }
      ASSERT_FALSE(exact.would_exceed(params))
          << "seed " << seed << " charge " << i
          << ": the session table admitted a charge the Ledger denies";
      exact.charge(params);
      ++admitted;
      // Costs only round up (a snap moves a cost by a few ulps at most):
      // the table never holds less than the exact sums.
      const PrivacyParams metered = table.spent(kUser);
      ASSERT_GE(metered.epsilon + 1e-12, exact.spent().epsilon)
          << "seed " << seed << " charge " << i;
      ASSERT_GE(metered.delta + 1e-12, exact.spent().delta)
          << "seed " << seed << " charge " << i;
    }
    ASSERT_EQ(exact.releases(), admitted);
    // Remaining budgets agree within the quantization bound: each
    // admitted charge over-charges by < 1 unit per component, the
    // ceiling under-allows by < 1 unit.
    const PrivacyParams fixed_left = table.remaining(kUser);
    const double eps_bound = 1e-6 * static_cast<double>(admitted + 2);
    const double delta_bound = 1e-9 * static_cast<double>(admitted + 2);
    ASSERT_NEAR(fixed_left.epsilon, exact.remaining().epsilon, eps_bound);
    ASSERT_NEAR(fixed_left.delta, exact.remaining().delta, delta_bound);
    ASSERT_GE(exact.remaining().epsilon + 1e-12, fixed_left.epsilon)
        << "the session table may never report MORE remaining budget";
  }
}

TEST(LedgerTightness, UnitExactSchedulesComposeIdentically) {
  // The shipped policies are exact in 1e-6/1e-9 units; the snap rule
  // must keep their fixed-point sums equal to llround of the double
  // sums (the historical golden-compatible behavior).
  FixedBudget spent;
  const FixedBudget ceiling = FixedBudget::ceiling_of(6.0, 0.5);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(spent.try_charge(FixedBudget::cost_of({0.5, 0.01}), ceiling));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(spent.try_charge(FixedBudget::cost_of({0.1, 0.001}), ceiling));
  }
  ASSERT_EQ(spent.epsilon_units, 7u * 500000u + 5u * 100000u);
  ASSERT_EQ(spent.delta_units, 7u * 10000000u + 5u * 1000000u);
  // Sub-unit components never quantize to free.
  const FixedBudget tiny = FixedBudget::cost_of({1e-9, 1e-12});
  ASSERT_EQ(tiny.epsilon_units, 1u);
  ASSERT_EQ(tiny.delta_units, 1u);
}

TEST(LedgerTightness, NearUnitValuesNeverRoundLooser) {
  // A value a few billionths of a unit past a unit boundary is not float
  // noise: as a cost it charges the next unit, as a ceiling it keeps the
  // unit below. Only a few ulps of v * scale snap.
  const FixedBudget cost =
      FixedBudget::cost_of({5.0000000049, 0.0100000000049});
  EXPECT_EQ(cost.epsilon_units, 5000001u);
  EXPECT_EQ(cost.delta_units, 10000001u);
  const FixedBudget ceiling =
      FixedBudget::ceiling_of(7.999999996, 0.4999999999996);
  EXPECT_EQ(ceiling.epsilon_units, 7999999u);
  EXPECT_EQ(ceiling.delta_units, 499999999u);
  // Float noise on unit-exact decimals still snaps both ways.
  EXPECT_EQ(FixedBudget::cost_of({0.3, 0.003}),
            (FixedBudget{300000u, 3000000u}));
  EXPECT_EQ(FixedBudget::ceiling_of(0.1 * 3.0, 0.001 * 3.0),
            (FixedBudget{300000u, 3000000u}));
}

TEST(LedgerTightness, ChargeSaturatesInsteadOfWrapping) {
  // Against an "unbounded" ceiling a component pins at kMaxUnits; against
  // any smaller ceiling the saturated sum is refused.
  const FixedBudget unbounded{FixedBudget::kMaxUnits, FixedBudget::kMaxUnits};
  FixedBudget spent{FixedBudget::kMaxUnits - 1, 5};
  ASSERT_TRUE(spent.try_charge({3, 1}, unbounded));
  EXPECT_EQ(spent, (FixedBudget{FixedBudget::kMaxUnits, 6}));
  FixedBudget near_rim{FixedBudget::kMaxUnits - 1, 0};
  EXPECT_FALSE(near_rim.try_charge({3, 0}, {FixedBudget::kMaxUnits - 1, 1}));
  EXPECT_EQ(near_rim, (FixedBudget{FixedBudget::kMaxUnits - 1, 0}));
  EXPECT_EQ(near_rim.remaining({FixedBudget::kMaxUnits, 7}),
            (FixedBudget{1, 7}));
  EXPECT_EQ(spent.remaining({4, 4}), (FixedBudget{0, 0}));
}

// ---------------------------------------------------------------------------
// 3. Concurrent conservation (TSan target).
// ---------------------------------------------------------------------------

TEST(LedgerConcurrency, ConcurrentChargesConserveBudget) {
  // 8 threads race 1000 charges of eps 0.001 each against one user under
  // a 4.0 epsilon ceiling: exactly 4000 of the 8000 can be admitted, no
  // interleaving may overshoot, and the meter must end exactly at the
  // ceiling.
  service::SessionTable table = session_table(4.0, 0.5);
  const FixedBudget cost = FixedBudget::cost_of({0.001, 0.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &admitted, cost] {
      for (int i = 0; i < kPerThread; ++i) {
        if (table.try_charge(kUser, cost) == service::ChargeOutcome::kCharged) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(admitted.load(), 4000u);
  EXPECT_EQ(table.spent(kUser).epsilon, 4.0);
  EXPECT_EQ(table.remaining(kUser).epsilon, 0.0);
  EXPECT_EQ(table.try_charge(kUser, cost),
            service::ChargeOutcome::kWouldExceed);
}

}  // namespace
}  // namespace poiprivacy::dp
