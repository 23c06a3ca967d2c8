// Property test: the sharded SessionTable (one mutex and one map per
// shard) against a single-map reference oracle.
//
// The oracle is the obviously-correct implementation — one map of
// user -> fixed-point ledger guarded by nothing (the test drives both
// serially), mirroring the real table's topology (shard_of /
// shard_capacity) so fail-closed capacity refusals and TTL sweeps are
// predicted exactly. 200 seeded random schedules of charges, epoch
// ticks and sweeps must agree on
//
//   * every admission outcome (charged / would-exceed / table-full),
//   * every user's spent and remaining budget afterwards,
//   * the exact eviction set of every sweep — in particular a session
//     is never dropped before sitting idle for a full TTL, no matter
//     how much budget it has charged,
//   * the resident/created/evicted/refused counters.
//
// Two more tests cover what the oracle cannot: the top of the u64 id
// space is ordinary, and epoch ticks, sweeps and window renewals racing
// concurrent charges (what the TCP front-end does) never let a user past
// the ceiling and leave the counters consistent (a `tsan` suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "service/session_table.h"

namespace poiprivacy {
namespace {

using service::ChargeOutcome;
using service::SessionTable;
using service::UserId;

/// The reference implementation: exact integer-unit ledgers in a map,
/// per-shard occupancy mirrored from the real table's topology.
class OracleTable {
 public:
  OracleTable(const SessionTable& table, dp::FixedBudget ceiling)
      : table_(&table),
        ceiling_(ceiling),
        resident_per_shard_(table.num_shards(), 0) {}

  ChargeOutcome try_charge(UserId user, dp::FixedBudget cost) {
    auto it = sessions_.find(user);
    if (it == sessions_.end()) {
      const std::size_t shard = table_->shard_of(user);
      if (resident_per_shard_[shard] >= table_->shard_capacity()) {
        ++full_refusals_;
        return ChargeOutcome::kTableFull;
      }
      it = sessions_.emplace(user, Session{}).first;
      ++resident_per_shard_[shard];
      ++created_;
    }
    it->second.touch = epoch_;
    const std::uint64_t eps =
        std::uint64_t{it->second.eps_units} + cost.epsilon_units;
    const std::uint64_t del =
        std::uint64_t{it->second.delta_units} + cost.delta_units;
    if (eps > ceiling_.epsilon_units || del > ceiling_.delta_units) {
      return ChargeOutcome::kWouldExceed;
    }
    it->second.eps_units = static_cast<std::uint32_t>(eps);
    it->second.delta_units = static_cast<std::uint32_t>(del);
    return ChargeOutcome::kCharged;
  }

  void advance_epoch() { ++epoch_; }

  std::size_t sweep(std::uint64_t ttl_epochs) {
    if (ttl_epochs == 0) return 0;
    std::size_t evicted = 0;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.touch + ttl_epochs <= epoch_) {
        --resident_per_shard_[table_->shard_of(it->first)];
        it = sessions_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    evictions_ += evicted;
    return evicted;
  }

  bool contains(UserId user) const { return sessions_.count(user) > 0; }

  dp::PrivacyParams spent(UserId user) const {
    const auto it = sessions_.find(user);
    if (it == sessions_.end()) return {0.0, 0.0};
    return dp::FixedBudget{it->second.eps_units, it->second.delta_units}
        .params();
  }

  std::size_t size() const { return sessions_.size(); }
  std::uint64_t created() const { return created_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t full_refusals() const { return full_refusals_; }

 private:
  struct Session {
    std::uint32_t eps_units = 0;
    std::uint32_t delta_units = 0;
    std::uint64_t touch = 0;
  };

  const SessionTable* table_;
  dp::FixedBudget ceiling_;
  std::unordered_map<UserId, Session> sessions_;
  std::vector<std::size_t> resident_per_shard_;
  std::uint64_t epoch_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t full_refusals_ = 0;
};

/// One randomized schedule: charges over a small user pool (so capacity
/// and budget limits are both hit), interleaved with ticks and sweeps.
void run_case(std::uint64_t seed) {
  common::Rng rng(seed);

  service::SessionTableConfig config;
  config.capacity = 8 + static_cast<std::size_t>(rng.uniform() * 25.0);
  config.shards = 1 + static_cast<std::size_t>(rng.uniform() * 4.0);
  config.ttl_epochs = rng.uniform() < 0.3
                          ? 0
                          : 1 + static_cast<std::uint64_t>(rng.uniform() * 3.0);
  config.epsilon_ceiling = rng.uniform() < 0.5 ? 3.5 : 1.0;
  config.delta_ceiling = 0.5;
  SessionTable table(config);
  OracleTable oracle(table, table.ceiling());

  const std::vector<dp::FixedBudget> costs = {
      dp::FixedBudget::cost_of({1.0, 0.05}),
      dp::FixedBudget::cost_of({0.25, 0.01}),
      dp::FixedBudget::cost_of({0.5, 0.0}),
      dp::FixedBudget::cost_of({0.1, 0.001}),
  };
  const UserId user_pool =
      8 + static_cast<UserId>(rng.uniform() * 56.0);  // 8..64 users

  for (std::size_t step = 0; step < 400; ++step) {
    const double op = rng.uniform();
    if (op < 0.8) {
      const UserId user = static_cast<UserId>(rng.uniform() *
                                              static_cast<double>(user_pool));
      const dp::FixedBudget cost =
          costs[static_cast<std::size_t>(rng.uniform() * 4.0) % 4];
      ASSERT_EQ(table.try_charge(user, cost), oracle.try_charge(user, cost))
          << "seed " << seed << " step " << step << " user " << user;
    } else if (op < 0.9) {
      table.advance_epoch();
      oracle.advance_epoch();
    } else {
      const std::size_t evicted = table.sweep();
      ASSERT_EQ(evicted, oracle.sweep(config.ttl_epochs))
          << "seed " << seed << " step " << step;
    }
  }

  // Full-state audit: membership, ledgers and counters all agree.
  for (UserId user = 0; user < user_pool; ++user) {
    ASSERT_EQ(table.contains(user), oracle.contains(user))
        << "seed " << seed << " user " << user;
    const dp::PrivacyParams expect = oracle.spent(user);
    const dp::PrivacyParams got = table.spent(user);
    ASSERT_DOUBLE_EQ(got.epsilon, expect.epsilon)
        << "seed " << seed << " user " << user;
    ASSERT_DOUBLE_EQ(got.delta, expect.delta)
        << "seed " << seed << " user " << user;
  }
  const service::SessionTableStats stats = table.stats();
  ASSERT_EQ(table.size(), oracle.size()) << "seed " << seed;
  ASSERT_EQ(stats.sessions, oracle.size()) << "seed " << seed;
  ASSERT_EQ(stats.sessions_created, oracle.created()) << "seed " << seed;
  ASSERT_EQ(stats.evictions_ttl, oracle.evictions()) << "seed " << seed;
  ASSERT_EQ(stats.full_refusals, oracle.full_refusals()) << "seed " << seed;
}

TEST(SessionShardProperty, MatchesReferenceOracleAcross200Seeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    run_case(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// The TTL-safety property in isolation: a session that keeps charging
/// (even unsuccessfully) is never evicted, however many sweeps run, and
/// an idle one survives exactly until its TTL elapses.
TEST(SessionShardProperty, SweepNeverDropsActiveSessions) {
  service::SessionTableConfig config;
  config.capacity = 16;
  config.shards = 4;
  config.ttl_epochs = 2;
  config.epsilon_ceiling = 1.0;
  SessionTable table(config);
  const dp::FixedBudget cost = dp::FixedBudget::cost_of({0.4, 0.0});

  EXPECT_EQ(table.try_charge(1, cost), ChargeOutcome::kCharged);
  EXPECT_EQ(table.try_charge(2, cost), ChargeOutcome::kCharged);
  for (int tick = 0; tick < 6; ++tick) {
    table.advance_epoch();
    // User 1 stays active — a refused charge still counts as contact.
    table.try_charge(1, cost);
    table.try_charge(1, cost);
    const std::size_t evicted = table.sweep();
    if (tick < 1) {
      EXPECT_EQ(evicted, 0u) << "idle session evicted before its TTL";
    }
    EXPECT_TRUE(table.contains(1));
  }
  // User 2 went idle at epoch 0 and must be long gone...
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.stats().evictions_ttl, 1u);
  // ...and renews with a fresh budget on recontact.
  EXPECT_EQ(table.try_charge(2, cost), ChargeOutcome::kCharged);
  EXPECT_DOUBLE_EQ(table.spent(2).epsilon, 0.4);
}

/// User ids arrive as u64s off the wire; none is reserved.
TEST(SessionShardProperty, TopOfTheIdSpaceIsOrdinary) {
  service::SessionTableConfig config;
  config.capacity = 16;
  config.shards = 4;
  config.epsilon_ceiling = 1.0;
  SessionTable table(config);
  const dp::FixedBudget cost = dp::FixedBudget::cost_of({0.4, 0.0});

  for (const UserId user : {~UserId{0}, ~UserId{0} - 1, ~UserId{0} - 2}) {
    EXPECT_FALSE(table.contains(user));
    EXPECT_EQ(table.try_charge(user, cost), ChargeOutcome::kCharged);
    EXPECT_EQ(table.try_charge(user, cost), ChargeOutcome::kCharged);
    EXPECT_EQ(table.try_charge(user, cost), ChargeOutcome::kWouldExceed);
    EXPECT_TRUE(table.contains(user));
    EXPECT_DOUBLE_EQ(table.spent(user).epsilon, 0.8);
    EXPECT_NEAR(table.remaining(user).epsilon, 0.2, 1e-12);
  }
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.stats().sessions_created, 3u);
  EXPECT_EQ(table.stats().full_refusals, 0u);
}

/// Four threads charge a few hundred users while a fifth ticks the epoch
/// and runs the TTL sweep and the window renewal on every tick — the TCP
/// front-end's main loop. No read may ever see a budget past the ceiling,
/// and at quiescence the counters and membership must agree.
TEST(SessionShardProperty, TicksWhileChargingStayWithinCeiling) {
  service::SessionTableConfig config;
  config.capacity = 1024;
  config.shards = 16;
  config.ttl_epochs = 1;
  config.renew_window_epochs = 1;
  config.epsilon_ceiling = 1.0;
  config.delta_ceiling = 0.05;
  SessionTable table(config);
  const dp::PrivacyParams ceiling = table.ceiling().params();
  const dp::FixedBudget cost = dp::FixedBudget::cost_of({0.25, 0.01});
  constexpr UserId kUsers = 300;
  constexpr int kChargers = 4;
  constexpr int kTicks = 200;
  constexpr int kMinCharges = 5000;

  std::atomic<int> ready{0};
  std::atomic<bool> ticking_done{false};
  std::atomic<bool> overspent{false};
  const auto wait_for_all = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < kChargers + 1) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kChargers; ++t) {
    threads.emplace_back([&, t] {
      wait_for_all();
      common::Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kMinCharges || !ticking_done.load(); ++i) {
        const auto user = static_cast<UserId>(
            rng.uniform() * static_cast<double>(kUsers));
        table.try_charge(user, cost);
        const dp::PrivacyParams spent = table.spent(user);
        if (spent.epsilon > ceiling.epsilon || spent.delta > ceiling.delta) {
          overspent.store(true);
        }
      }
    });
  }
  threads.emplace_back([&] {
    wait_for_all();
    for (int tick = 0; tick < kTicks; ++tick) {
      table.advance_epoch();
      table.sweep();
      table.renew_windows();
      std::this_thread::yield();
    }
    ticking_done.store(true);
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(overspent.load()) << "a spent read passed the ceiling";
  const service::SessionTableStats stats = table.stats();
  EXPECT_GT(stats.evictions_ttl, 0u) << "the sweeps never overlapped";
  EXPECT_EQ(stats.sessions, stats.sessions_created - stats.evictions_ttl);
  EXPECT_EQ(stats.sessions, table.size());
  std::size_t members = 0;
  for (UserId user = 0; user < kUsers; ++user) {
    if (table.contains(user)) {
      ++members;
      EXPECT_LE(table.spent(user).epsilon, ceiling.epsilon);
    } else {
      EXPECT_EQ(table.spent(user).epsilon, 0.0) << "user " << user;
      EXPECT_EQ(table.remaining(user).epsilon, ceiling.epsilon);
    }
  }
  EXPECT_EQ(members, table.size());
  // One more idle tick and every session is gone.
  table.advance_epoch();
  EXPECT_EQ(table.sweep(), members);
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace poiprivacy
