// Concurrency stress for the serving pipeline: many threads hammering
// serve_concurrent() over a shared user population, and every kind of
// caller (serve(), serve_concurrent(), serve_stream()) on one service at
// once, asserting the invariants that must hold under EVERY
// interleaving —
//
//   * conservation: granted + degraded + exhausted + invalid equals the
//     requests issued (no request lost or double-counted);
//   * safety: no user's charged budget ever exceeds the ceiling, however
//     the charges race;
//   * the session table never over-admits first contacts past capacity;
//   * the owner's serve() results match a twin served alone in
//     everything the other callers' noise indices do not touch.
//
// The suite carries the `tsan` label: scripts/check.sh rebuilds it under
// ThreadSanitizer, which turns any locking mistake in the session table,
// release cache or budget meter into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kRequestsPerThread = 10000;
constexpr std::size_t kUsers = 64;  ///< shared across threads: contention

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
        // ceiling (a charge refuses rather than overshoots).
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

/// Stream stub for the mixed-caller test (window = 2 epochs, stride 1):
/// series s in the window starting at epoch b counts 10 * b + s.
class RampStreamSource final : public service::StreamSource {
 public:
  std::size_t num_series() const override { return 3; }
  std::size_t epochs() const override { return 8; }
  std::size_t num_windows(std::size_t begin, std::size_t end) const override {
    return end - begin >= 2 ? end - begin - 1 : 0;
  }
  double sensitivity() const override { return 2.0; }
  void release_raw(std::size_t begin, std::size_t end,
                   std::vector<double>& out) const override {
    out.resize(num_windows(begin, end) * num_series());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<double>(10 * (begin + i / num_series()) +
                                   i % num_series());
    }
  }
};

// Every caller on one service at once: an owner thread drives serve()
// over a trace on a 4-thread pool while four threads call
// serve_concurrent() and one calls serve_stream(), each on its own users.
// The twin serves the same trace alone, single-threaded.
TEST(ServiceStress, OwnerServeAlongsideConcurrentAndStreamCallers) {
  const poi::City city = stress_city();
  const cloak::AdaptiveIntervalCloaker cloaker = stress_cloaker(city.db);
  service::ServiceConfig config = stress_config();
  config.max_batch = 64;
  config.cache_capacity = 1 << 14;  ///< no eviction: cache hits comparable

  service::WorkloadConfig workload;
  workload.num_users = 16;  ///< users 0..15
  workload.requests_per_user = 20;
  workload.seed = 11;
  workload.policy_weights = {0.7, 0.3};
  const std::vector<service::ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, workload));
  ASSERT_GE(trace.size(), 256u);

  common::set_default_thread_count(1);
  service::ReleaseService twin(city.db, cloaker, config);
  const std::vector<service::ReleaseResult> expected = twin.serve(trace);
  common::set_default_thread_count(4);

  service::ReleaseService gsp(city.db, cloaker, config);
  const RampStreamSource source;
  gsp.attach_stream_source(&source);
  constexpr std::size_t kPointThreads = 4;
  constexpr std::size_t kCallsPerThread = 150;
  constexpr std::size_t kUsersPerThread = 8;
  constexpr service::UserId kPointUser0 = 100;  ///< + t * 8 + i % 8
  constexpr service::UserId kStreamUser0 = 500;  ///< + i % 8
  const geo::BBox bounds = city.db.bounds();

  std::vector<service::ReleaseResult> owner;
  std::vector<std::thread> threads;
  threads.emplace_back([&] { owner = gsp.serve(trace); });
  for (std::size_t t = 0; t < kPointThreads; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(2000 + t);
      for (std::size_t i = 0; i < kCallsPerThread; ++i) {
        service::ReleaseRequest request;
        request.user_id = kPointUser0 + t * kUsersPerThread +
                          i % kUsersPerThread;
        request.location = {
            bounds.min_x + rng.uniform() * (bounds.max_x - bounds.min_x),
            bounds.min_y + rng.uniform() * (bounds.max_y - bounds.min_y)};
        // A radius the trace never uses keeps these cache keys apart
        // from the owner's; every 13th request is malformed.
        request.radius = i % 13 == 0 ? -1.0 : 2.5;
        request.policy = static_cast<service::PolicyId>(i % 2);
        const service::ReleaseResult result = gsp.serve_concurrent(request);
        ASSERT_LE(result.spent.epsilon, config.epsilon_ceiling + 1e-9);
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kCallsPerThread; ++i) {
      const auto begin = static_cast<std::uint32_t>(i % 6);
      const service::ReleaseResult result = gsp.serve_stream(
          {kStreamUser0 + i % kUsersPerThread,
           static_cast<std::uint32_t>(i % 3), begin, begin + 2,
           static_cast<service::PolicyId>(i % 2)});
      ASSERT_LE(result.spent.epsilon, config.epsilon_ceiling + 1e-9);
    }
  });
  for (std::thread& thread : threads) thread.join();
  common::set_default_thread_count(0);

  const service::ServiceStats stats = gsp.stats();
  EXPECT_EQ(stats.requests,
            trace.size() + (kPointThreads + 1) * kCallsPerThread);
  EXPECT_EQ(stats.granted + stats.degraded + stats.budget_exhausted +
                stats.invalid,
            stats.requests);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.granted + stats.degraded);
  EXPECT_GT(stats.budget_exhausted, 0u);
  EXPECT_GT(stats.invalid, 0u);
  for (service::UserId user = 0; user < kStreamUser0 + kUsersPerThread;
       ++user) {
    EXPECT_LE(gsp.user_spent(user).epsilon, config.epsilon_ceiling + 1e-9);
    EXPECT_LE(gsp.user_spent(user).delta, config.delta_ceiling + 1e-9);
  }

  // The other callers drew noise indices between the owner's, so the
  // noise differs; admission, cache history and the released shape
  // belong to the owner's users and keys alone and must match the twin.
  ASSERT_EQ(owner.size(), expected.size());
  for (std::size_t i = 0; i < owner.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(owner[i].status, expected[i].status);
    EXPECT_EQ(owner[i].served_policy, expected[i].served_policy);
    EXPECT_EQ(owner[i].cache_hit, expected[i].cache_hit);
    EXPECT_EQ(owner[i].spent.epsilon, expected[i].spent.epsilon);
    EXPECT_EQ(owner[i].spent.delta, expected[i].spent.delta);
    EXPECT_EQ(owner[i].vector.size(), expected[i].vector.size());
  }
}

}  // namespace
}  // namespace poiprivacy
