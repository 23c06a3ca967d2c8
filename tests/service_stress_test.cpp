// Concurrency stress for the lock-free serving path: many threads
// hammering serve_concurrent() over a shared user population, asserting
// the invariants that must hold under EVERY interleaving —
//
//   * conservation: granted + degraded + exhausted + invalid equals the
//     requests issued (no request lost or double-counted);
//   * safety: no user's charged budget ever exceeds the ceiling, however
//     the CAS races resolve;
//   * the session table never over-admits first contacts past capacity.
//
// The suite carries the `tsan` label: scripts/check.sh rebuilds it under
// ThreadSanitizer, which turns any locking mistake in the session table,
// release cache or budget meter into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kRequestsPerThread = 10000;
constexpr std::size_t kUsers = 64;  ///< shared across threads: CAS contention

poi::City stress_city() { return poi::generate_city(poi::test_preset(), 7); }

cloak::AdaptiveIntervalCloaker stress_cloaker(const poi::PoiDatabase& db) {
  common::Rng rng(3);
  return cloak::AdaptiveIntervalCloaker(
      cloak::uniform_population(db.bounds(), 500, rng), db.bounds());
}

service::ServiceConfig stress_config() {
  service::ServiceConfig config;
  config.policies.push_back(
      {"precise", {.k = 8, .epsilon = 1.0, .delta = 0.05}});
  config.policies.push_back(
      {"coarse", {.k = 8, .epsilon = 0.25, .delta = 0.01}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = 3.5;
  config.delta_ceiling = 1.0;
  config.seed = 99;
  return config;
}

TEST(ServiceStress, ConcurrentAdmissionConservesAndNeverOverspends) {
  const poi::City city = stress_city();
  const cloak::AdaptiveIntervalCloaker cloaker = stress_cloaker(city.db);
  const service::ServiceConfig config = stress_config();
  service::ReleaseService gsp(city.db, cloaker, config);

  const geo::BBox bounds = city.db.bounds();
  std::atomic<std::uint64_t> vectors_released{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(1000 + t);
      std::uint64_t released = 0;
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        service::ReleaseRequest request;
        request.user_id = (t * kRequestsPerThread + i) % kUsers;
        request.location = {
            bounds.min_x + rng.uniform() * (bounds.max_x - bounds.min_x),
            bounds.min_y + rng.uniform() * (bounds.max_y - bounds.min_y)};
        // A sprinkle of malformed requests keeps the invalid counter in
        // the conservation check.
        request.radius = i % 97 == 0 ? -1.0 : 1.0;
        request.policy = static_cast<service::PolicyId>(i % 2);
        const service::ReleaseResult result = gsp.serve_concurrent(request);
        if (result.status == service::ReleaseStatus::kGranted ||
            result.status == service::ReleaseStatus::kDegraded) {
          ASSERT_FALSE(result.vector.empty());
          ++released;
        } else {
          ASSERT_TRUE(result.vector.empty());
        }
        // The spent budget reported with ANY outcome respects the
        // ceiling (the CAS refuses rather than overshoots).
        ASSERT_LE(result.spent.epsilon, config.epsilon_ceiling + 1e-9);
        ASSERT_LE(result.spent.delta, config.delta_ceiling + 1e-9);
      }
      vectors_released.fetch_add(released, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kTotal = kThreads * kRequestsPerThread;
  const service::ServiceStats stats = gsp.stats();
  EXPECT_EQ(stats.requests, kTotal);
  EXPECT_EQ(stats.granted + stats.degraded + stats.budget_exhausted +
                stats.invalid,
            kTotal);
  EXPECT_EQ(stats.granted + stats.degraded,
            vectors_released.load(std::memory_order_relaxed));
  EXPECT_GT(stats.granted, 0u);
  EXPECT_GT(stats.budget_exhausted, 0u);
  EXPECT_GT(stats.invalid, 0u);
  // Cache accounting covers every released vector exactly once.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.granted + stats.degraded);

  // Post-mortem per-user audit: the final ledger respects the ceiling,
  // and the whole shared population was admitted at least once.
  const service::SessionTableStats sessions = gsp.session_stats();
  EXPECT_EQ(sessions.sessions, kUsers);
  EXPECT_EQ(sessions.sessions_created, kUsers);
  EXPECT_EQ(sessions.full_refusals, 0u);
  EXPECT_EQ(sessions.evictions_ttl, 0u);
  for (service::UserId user = 0; user < kUsers; ++user) {
    const dp::PrivacyParams spent = gsp.user_spent(user);
    EXPECT_LE(spent.epsilon, config.epsilon_ceiling + 1e-9);
    EXPECT_LE(spent.delta, config.delta_ceiling + 1e-9);
    // Every user saw kThreads x 10000 / kUsers >> budget requests, so
    // each must have been driven to exhaustion: too little remains for
    // even the cheap policy.
    const dp::PrivacyParams remaining = gsp.user_remaining(user);
    EXPECT_LT(remaining.epsilon, 0.25);
  }
}

TEST(ServiceStress, ConcurrentFirstContactsRespectTableCapacity) {
  const poi::City city = stress_city();
  const cloak::AdaptiveIntervalCloaker cloaker = stress_cloaker(city.db);
  service::ServiceConfig config = stress_config();
  config.session_capacity = 24;  ///< far fewer slots than distinct users
  config.session_shards = 4;
  service::ReleaseService gsp(city.db, cloaker, config);

  constexpr std::size_t kDistinctUsers = 512;
  std::atomic<std::uint64_t> table_full{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t refused = 0;
      for (std::size_t i = t; i < kDistinctUsers; i += kThreads) {
        service::ReleaseRequest request;
        request.user_id = i;
        request.location = {4.0, 4.0};
        request.radius = 1.0;
        request.policy = 1;
        const service::ReleaseResult result = gsp.serve_concurrent(request);
        if (result.status == service::ReleaseStatus::kBudgetExhausted &&
            result.spent.epsilon == 0.0) {
          ++refused;  // fail-closed: refused without ever being tracked
        }
      }
      table_full.fetch_add(refused, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const service::SessionTableStats sessions = gsp.session_stats();
  // Capacity is a hard bound under any interleaving of racing inserts.
  EXPECT_LE(sessions.sessions, config.session_capacity);
  EXPECT_GT(sessions.full_refusals, 0u);
  EXPECT_EQ(sessions.sessions + table_full.load(std::memory_order_relaxed),
            kDistinctUsers);
}

}  // namespace
}  // namespace poiprivacy
