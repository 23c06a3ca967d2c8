// The serving layer's contracts: typed admission (grant -> degrade ->
// refuse, never an exception), deterministic release-cache counters,
// bit-identical output for any --threads / batch size / cache capacity,
// and the workload generator's per-user substream stability.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {

poi::City make_city() { return poi::generate_city(poi::test_preset(), 7); }

cloak::AdaptiveIntervalCloaker make_cloaker(const poi::PoiDatabase& db) {
  common::Rng rng(3);
  return cloak::AdaptiveIntervalCloaker(
      cloak::uniform_population(db.bounds(), 500, rng), db.bounds());
}

/// Two policies under a tight ceiling with basic composition, so the
/// admission sequence is exactly predictable: three 1.0-releases, two
/// 0.25-degrades, then refusal (3.0 + 2 * 0.25 = 3.5 = ceiling).
service::ServiceConfig two_policy_config() {
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

std::vector<service::ReleaseRequest> repeat_request(service::UserId user,
                                                    std::size_t n) {
  std::vector<service::ReleaseRequest> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({user, {4.0, 4.0}, 1.0, 0});
  }
  return out;
}

service::WorkloadConfig small_workload() {
  service::WorkloadConfig workload;
  workload.num_users = 6;
  workload.requests_per_user = 5;
  workload.seed = 11;
  workload.radii = {0.8, 1.5};
  workload.policy_weights = {0.7, 0.3};
  return workload;
}


/// Deterministic stream stub (window = 2 epochs, stride 1): series s in
/// window starting at epoch b counts 10 * b + s.
class FakeStreamSource final : public service::StreamSource {
 public:
  std::size_t num_series() const override { return 3; }
  std::size_t epochs() const override { return 8; }
  std::size_t num_windows(std::size_t begin, std::size_t end) const override {
    return end - begin >= 2 ? end - begin - 1 : 0;
  }
  double sensitivity() const override { return 2.0; }
  void release_raw(std::size_t begin, std::size_t end,
                   std::vector<double>& out) const override {
    const std::size_t windows = num_windows(begin, end);
    out.resize(windows * num_series());
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t s = 0; s < num_series(); ++s) {
        out[w * num_series() + s] = static_cast<double>(10 * (begin + w) + s);
      }
    }
  }
};

TEST(ReleaseService, CtorValidatesConfig) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ServiceConfig config;
  EXPECT_THROW(service::ReleaseService(city.db, cloaker, config),
               std::invalid_argument);  // no policies

  config = two_policy_config();
  config.degrade_policy = 7;
  EXPECT_THROW(service::ReleaseService(city.db, cloaker, config),
               std::invalid_argument);  // dangling degrade index

  config = two_policy_config();
  config.policies[0].release.delta = 0.0;  // Gaussian needs delta > 0
  EXPECT_THROW(service::ReleaseService(city.db, cloaker, config),
               std::invalid_argument);

  // ... but a pure-epsilon geometric policy is fine with delta = 0.
  config.policies[0].release.noise = defense::DpNoiseKind::kGeometric;
  EXPECT_NO_THROW(service::ReleaseService(city.db, cloaker, config));

  config = two_policy_config();
  config.policies[1].release.k = 0;
  EXPECT_THROW(service::ReleaseService(city.db, cloaker, config),
               std::invalid_argument);
}

// Phase D folds k dummy rows into exact int32 sums, so k x |POIs| must
// stay within INT32_MAX. The constructor refuses a policy past that
// bound, which keeps serving free of exceptions; a direct
// PoiDatabase::freq_sum_max caller gets the throw instead.
TEST(ReleaseService, CtorRejectsPolicyAboveExactFoldBound) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const std::size_t limit = city.db.max_fold_centers();
  ASSERT_EQ(limit, static_cast<std::size_t>(
                       std::numeric_limits<std::int32_t>::max()) /
                       city.db.pois().size());

  service::ServiceConfig config = two_policy_config();
  config.policies[1].release.k = limit + 1;
  EXPECT_THROW(service::ReleaseService(city.db, cloaker, config),
               std::invalid_argument);
  config.policies[1].release.k = limit;
  EXPECT_NO_THROW(service::ReleaseService(city.db, cloaker, config));

  poi::FrequencyVector sum, max;
  const std::vector<geo::Point> too_many(limit + 1, geo::Point{4.0, 4.0});
  EXPECT_THROW(city.db.freq_sum_max(too_many, 1.0, sum, max),
               std::invalid_argument);
  const std::vector<geo::Point> one(1, geo::Point{4.0, 4.0});
  city.db.freq_sum_max(one, 1.0, sum, max);
  EXPECT_EQ(sum, city.db.freq({4.0, 4.0}, 1.0));
  EXPECT_EQ(max, sum);
}

TEST(ReleaseService, BudgetExhaustionOrdering) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ReleaseService gsp(city.db, cloaker, two_policy_config());

  const auto results = gsp.serve(repeat_request(42, 7));
  ASSERT_EQ(results.size(), 7u);
  const service::ReleaseStatus expected[] = {
      service::ReleaseStatus::kGranted,
      service::ReleaseStatus::kGranted,
      service::ReleaseStatus::kGranted,
      service::ReleaseStatus::kDegraded,
      service::ReleaseStatus::kDegraded,
      service::ReleaseStatus::kBudgetExhausted,
      service::ReleaseStatus::kBudgetExhausted,
  };
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(results[i].status, expected[i]) << "request " << i;
  }
  // Degraded releases are served under the degrade policy and still
  // produce a vector; refusals do not.
  EXPECT_EQ(results[3].served_policy, 1u);
  EXPECT_EQ(results[3].vector.size(), city.db.num_types());
  EXPECT_TRUE(results[5].vector.empty());

  // Spent budget is monotone and frozen once refused.
  EXPECT_NEAR(results[2].spent.epsilon, 3.0, 1e-12);
  EXPECT_NEAR(results[4].spent.epsilon, 3.5, 1e-12);
  EXPECT_NEAR(results[6].spent.epsilon, 3.5, 1e-12);
  EXPECT_NEAR(gsp.user_spent(42).epsilon, 3.5, 1e-12);
  EXPECT_DOUBLE_EQ(gsp.user_remaining(42).epsilon, 0.0);

  const service::ServiceStats stats = gsp.stats();
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.granted, 3u);
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_EQ(stats.budget_exhausted, 2u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_EQ(stats.users, 1u);
  EXPECT_EQ(gsp.num_users(), 1u);
}

TEST(ReleaseService, BudgetsArePerUser) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ReleaseService gsp(city.db, cloaker, two_policy_config());

  auto trace = repeat_request(1, 6);
  const auto other = repeat_request(2, 1);
  trace.insert(trace.end(), other.begin(), other.end());
  const auto results = gsp.serve(trace);
  // User 1 exhausts; user 2's first request is untouched by that.
  EXPECT_EQ(results[5].status, service::ReleaseStatus::kBudgetExhausted);
  EXPECT_EQ(results[6].status, service::ReleaseStatus::kGranted);
  EXPECT_NEAR(gsp.user_spent(2).epsilon, 1.0, 1e-12);
  EXPECT_EQ(gsp.num_users(), 2u);
  // A never-seen user has the full ceiling remaining.
  EXPECT_DOUBLE_EQ(gsp.user_remaining(777).epsilon, 3.5);
  EXPECT_DOUBLE_EQ(gsp.user_spent(777).epsilon, 0.0);
}

TEST(ReleaseService, InvalidRequestsAreTypedNotThrown) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ReleaseService gsp(city.db, cloaker, two_policy_config());

  const service::ReleaseResult bad_policy =
      gsp.serve_concurrent({1, {4.0, 4.0}, 1.0, 9});
  EXPECT_EQ(bad_policy.status, service::ReleaseStatus::kInvalidRequest);
  EXPECT_TRUE(bad_policy.vector.empty());
  EXPECT_DOUBLE_EQ(bad_policy.spent.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(bad_policy.spent.delta, 0.0);

  const service::ReleaseResult bad_radius =
      gsp.serve_concurrent({1, {4.0, 4.0}, 0.0, 0});
  EXPECT_EQ(bad_radius.status, service::ReleaseStatus::kInvalidRequest);

  // Invalid requests never create a session or spend budget.
  EXPECT_EQ(gsp.num_users(), 0u);
  EXPECT_EQ(gsp.stats().invalid, 2u);
}

// A non-finite radius or location is refused before admission, through
// serve() and serve_concurrent() alike. Before the check, inf slipped past `!(radius > 0)` (as
// did a NaN location) and reached the grid index's float-to-int cell
// computation, which is UB; the ASan/UBSan gate runs this suite with
// float-cast-overflow enabled.
TEST(ReleaseService, NonFiniteRequestsAreInvalidAndUncharged) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<service::ReleaseRequest> malformed = {
      {1, {4.0, 4.0}, inf, 0},  {2, {4.0, 4.0}, -inf, 0},
      {3, {4.0, 4.0}, nan, 0},  {4, {nan, 4.0}, 1.0, 0},
      {5, {4.0, nan}, 1.0, 0},  {6, {inf, 4.0}, 1.0, 0},
      {7, {4.0, -inf}, 1.0, 1},
  };
  service::ReleaseService batch(city.db, cloaker, two_policy_config());
  const std::vector<service::ReleaseResult> results = batch.serve(malformed);
  service::ReleaseService concurrent(city.db, cloaker, two_policy_config());
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    const service::ReleaseResult one = concurrent.serve_concurrent(malformed[i]);
    for (const service::ReleaseResult* r : {&results[i], &one}) {
      EXPECT_EQ(r->status, service::ReleaseStatus::kInvalidRequest)
          << "request " << i;
      EXPECT_TRUE(r->vector.empty()) << "request " << i;
      EXPECT_DOUBLE_EQ(r->spent.epsilon, 0.0) << "request " << i;
    }
  }
  EXPECT_EQ(batch.num_users(), 0u);
  EXPECT_EQ(batch.stats().invalid, malformed.size());
  EXPECT_EQ(batch.stats().cache_misses, 0u);
  EXPECT_EQ(concurrent.num_users(), 0u);
  EXPECT_EQ(concurrent.stats().invalid, malformed.size());
  EXPECT_EQ(concurrent.stats().cache_misses, 0u);
}

// Batch, per-request and stream traffic through one service all count
// into the one stats(): every call once, every status once, one cache
// outcome per released vector.
TEST(ReleaseService, StatsCountEveryServingPathOnce) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ReleaseService gsp(city.db, cloaker, two_policy_config());
  const FakeStreamSource source;
  gsp.attach_stream_source(&source);

  const std::vector<service::ReleaseRequest> trace =
      service::requests_of(service::generate_workload(city, small_workload()));
  std::uint64_t calls = gsp.serve(trace).size();
  // User 40 runs through grant, degrade and refusal (see
  // two_policy_config); user 41's radius is invalid.
  for (const service::ReleaseRequest& request : repeat_request(40, 7)) {
    gsp.serve_concurrent(request);
    ++calls;
  }
  gsp.serve_concurrent({41, {4.0, 4.0}, -1.0, 0});
  ++calls;
  // Two grants on one stream block (a miss, then a hit), one empty range.
  gsp.serve_stream({50, 0, 0, 4, 0});
  gsp.serve_stream({51, 1, 0, 4, 0});
  gsp.serve_stream({52, 0, 5, 5, 0});
  calls += 3;

  const service::ServiceStats stats = gsp.stats();
  EXPECT_EQ(stats.requests, calls);
  EXPECT_EQ(stats.granted + stats.degraded + stats.budget_exhausted +
                stats.invalid,
            stats.requests);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.granted + stats.degraded);
  EXPECT_EQ(stats.users, gsp.session_stats().sessions_created);
  // One drained batch plus one batch of one per serve_concurrent call.
  EXPECT_EQ(stats.batches, 1u + 8u);
  // Guard against vacuous sums: every outcome occurred.
  EXPECT_GT(stats.granted, 0u);
  EXPECT_GE(stats.degraded, 2u);
  EXPECT_GE(stats.budget_exhausted, 2u);
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
}

// A finite radius far past the city is well formed: its disk covers every
// POI. The grid clamps the bounding square's cells in floating point, so
// 1e300 (whose cell number overflows int) is served, not UB.
TEST(ReleaseService, HugeFiniteRadiusCoversTheCity) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  EXPECT_EQ(city.db.freq({4.0, 4.0}, 1e300), city.db.city_freq());
  EXPECT_EQ(city.db.freq({-1e300, 1e300}, 1e301), city.db.city_freq());
  EXPECT_EQ(poi::total(city.db.freq({4.0, 4.0}, 1e-300)), 0);

  service::ReleaseService batch(city.db, cloaker, two_policy_config());
  service::ReleaseService concurrent(city.db, cloaker, two_policy_config());
  const service::ReleaseRequest huge{1, {4.0, 4.0}, 1e300, 0};
  const service::ReleaseResult a = batch.serve({&huge, 1}).front();
  const service::ReleaseResult b = concurrent.serve_concurrent(huge);
  EXPECT_EQ(a.status, service::ReleaseStatus::kGranted);
  EXPECT_EQ(a.vector.size(), city.db.num_types());
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.vector, a.vector);  // same arrival index 0, same substream
}

TEST(ReleaseService, CacheHitsAreDeterministic) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);

  const auto run = [&] {
    service::ReleaseService gsp(city.db, cloaker, two_policy_config());
    // Two users at the same location under the same policy/radius cloak
    // into the same quadrant and share one aggregate computation.
    std::vector<service::ReleaseRequest> trace = {
        {1, {4.0, 4.0}, 1.0, 0},
        {2, {4.0, 4.0}, 1.0, 0},
    };
    // stats() is a snapshot: take it after serving.
    std::vector<service::ReleaseResult> served = gsp.serve(trace);
    return std::make_pair(std::move(served), gsp.stats());
  };

  const auto [results, stats] = run();
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[1].cache_hit);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  // Same aggregate, but per-request noise substreams keep the released
  // vectors independent.
  EXPECT_NE(results[0].vector, results[1].vector);

  // The whole run (vectors, flags, counters) reproduces exactly.
  const auto [again, stats_again] = run();
  EXPECT_EQ(again, results);
  EXPECT_EQ(stats_again, stats);
}

TEST(ReleaseService, CacheCapacityNeverChangesReleases) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const auto trace = service::requests_of(
      service::generate_workload(city, small_workload()));

  const auto run = [&](std::size_t capacity) {
    service::ServiceConfig config = two_policy_config();
    config.epsilon_ceiling = 100.0;  // admission out of the picture
    config.cache_capacity = capacity;
    service::ReleaseService gsp(city.db, cloaker, config);
    return gsp.serve(trace);
  };

  // A cached aggregate is a pure function of its key, so shrinking the
  // cache to almost nothing changes recomputation counts only — every
  // released vector must stay bit-identical.
  const auto roomy = run(4096);
  const auto tiny = run(1);
  EXPECT_EQ(tiny, roomy);
}

TEST(ReleaseService, EvictionCountersSplitLruFromTtl) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);

  // Capacity pressure: a 1-entry cache serving two distinct keys evicts
  // exactly once, attributed to the LRU policy.
  {
    service::ServiceConfig config = two_policy_config();
    config.epsilon_ceiling = 100.0;
    config.cache_capacity = 1;
    service::ReleaseService gsp(city.db, cloaker, config);
    gsp.serve_concurrent({1, {4.0, 4.0}, 1.0, 0});
    gsp.serve_concurrent({1, {4.0, 4.0}, 2.0, 0});  // same region, new radius
    const service::ReleaseCacheStats cache = gsp.cache_stats();
    EXPECT_EQ(cache.misses, 2u);
    EXPECT_EQ(cache.evictions_lru, 1u);
    EXPECT_EQ(cache.evictions_ttl, 0u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.entries, 1u);
  }

  // Expiry: an untouched entry dies on the first epoch tick once the
  // cache TTL is 1, attributed to the TTL policy, and the key is then
  // recomputed (never a changed vector — pinned elsewhere).
  {
    service::ServiceConfig config = two_policy_config();
    config.epsilon_ceiling = 100.0;
    config.cache_ttl_epochs = 1;
    service::ReleaseService gsp(city.db, cloaker, config);
    const auto first = gsp.serve_concurrent({1, {4.0, 4.0}, 1.0, 0});
    EXPECT_FALSE(first.cache_hit);
    gsp.advance_epoch();
    const service::ReleaseCacheStats cache = gsp.cache_stats();
    EXPECT_EQ(cache.evictions_ttl, 1u);
    EXPECT_EQ(cache.evictions_lru, 0u);
    EXPECT_EQ(cache.entries, 0u);
    const auto again = gsp.serve_concurrent({1, {4.0, 4.0}, 1.0, 0});
    EXPECT_FALSE(again.cache_hit);
    EXPECT_EQ(gsp.cache_stats().misses, 2u);
  }
}

TEST(ReleaseService, SessionTtlRenewsBudget) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ServiceConfig config = two_policy_config();
  config.session_ttl_epochs = 1;
  service::ReleaseService gsp(city.db, cloaker, config);

  // Spend most of the 3.5 ceiling...
  const auto spent_down = gsp.serve(repeat_request(7, 3));
  EXPECT_EQ(spent_down.back().status, service::ReleaseStatus::kGranted);
  EXPECT_DOUBLE_EQ(gsp.user_spent(7).epsilon, 3.0);
  EXPECT_EQ(gsp.num_users(), 1u);

  // ...then let the session idle past its TTL: the sweep reclaims the
  // slot (visible in the eviction counter) and the budget renews.
  gsp.advance_epoch();
  EXPECT_EQ(gsp.session_stats().evictions_ttl, 1u);
  EXPECT_EQ(gsp.num_users(), 0u);
  EXPECT_DOUBLE_EQ(gsp.user_spent(7).epsilon, 0.0);

  const auto renewed = gsp.serve_concurrent({7, {4.0, 4.0}, 1.0, 0});
  EXPECT_EQ(renewed.status, service::ReleaseStatus::kGranted);
  EXPECT_DOUBLE_EQ(gsp.user_spent(7).epsilon, 1.0);
  // The renewal re-created the session: the user is counted twice in
  // the lifetime counter, once in residency.
  EXPECT_EQ(gsp.stats().users, 2u);
  EXPECT_EQ(gsp.session_stats().sessions_created, 2u);
  EXPECT_EQ(gsp.num_users(), 1u);
}


TEST(ReleaseService, ServeStreamValidatesAdmitsAndCaches) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ReleaseService gsp(city.db, cloaker, two_policy_config());
  const FakeStreamSource source;

  // No source attached: typed invalid, never a throw.
  EXPECT_EQ(gsp.serve_stream({1, 0, 0, 4, 0}).status,
            service::ReleaseStatus::kInvalidRequest);
  gsp.attach_stream_source(&source);
  EXPECT_EQ(gsp.stream_source(), &source);

  // Validation: bad policy, series, epoch range, empty window set.
  EXPECT_EQ(gsp.serve_stream({1, 0, 0, 4, 9}).status,
            service::ReleaseStatus::kInvalidRequest);
  EXPECT_EQ(gsp.serve_stream({1, 3, 0, 4, 0}).status,
            service::ReleaseStatus::kInvalidRequest);
  EXPECT_EQ(gsp.serve_stream({1, 0, 0, 9, 0}).status,
            service::ReleaseStatus::kInvalidRequest);
  EXPECT_EQ(gsp.serve_stream({1, 0, 4, 4, 0}).status,
            service::ReleaseStatus::kInvalidRequest);
  EXPECT_EQ(gsp.serve_stream({1, 0, 3, 4, 0}).status,
            service::ReleaseStatus::kInvalidRequest);  // 1 epoch < window

  // A granted block: one noised i32 per window, one admission charge of
  // windows * policy cost (3 * {1.0, 0.05} here).
  const auto granted = gsp.serve_stream({1, 0, 0, 4, 0});
  ASSERT_EQ(granted.status, service::ReleaseStatus::kGranted);
  EXPECT_EQ(granted.vector.size(), 3u);
  EXPECT_FALSE(granted.cache_hit);
  EXPECT_DOUBLE_EQ(granted.spent.epsilon, 3.0);
  EXPECT_DOUBLE_EQ(granted.spent.delta, 0.15);
  for (const std::int32_t count : granted.vector) EXPECT_GE(count, 0);

  // Same range, different user and series: the raw block is shared —
  // a cache hit even though the noise (and series) differ.
  const auto shared = gsp.serve_stream({2, 1, 0, 4, 0});
  ASSERT_EQ(shared.status, service::ReleaseStatus::kGranted);
  EXPECT_TRUE(shared.cache_hit);

  // There is no degrade path for streams: the next 3-window block for
  // user 1 would cost 3.0 on top of 3.0 against the 3.5 ceiling.
  const auto refused = gsp.serve_stream({1, 0, 0, 4, 0});
  EXPECT_EQ(refused.status, service::ReleaseStatus::kBudgetExhausted);
  EXPECT_TRUE(refused.vector.empty());
  EXPECT_DOUBLE_EQ(refused.spent.epsilon, 3.0);  // unchanged
}

// A tiny epsilon passes the constructor's epsilon > 0 check, but the
// Laplace scale is then 2e9 (sensitivity 2 / 1e-9), so about a sixth of
// the draws round above INT32_MAX. They saturate instead of being cast
// out of range, which is undefined (the UBSan build traps it).
TEST(ReleaseService, ServeStreamSaturatesHugeNoise) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ServiceConfig config;
  config.policies.push_back(
      {"tiny", {.k = 8, .epsilon = 1e-9, .delta = 1e-4}});
  config.seed = 99;
  service::ReleaseService gsp(city.db, cloaker, config);
  const FakeStreamSource source;
  gsp.attach_stream_source(&source);
  std::size_t saturated = 0;
  std::size_t zero = 0;
  for (service::UserId user = 0; user < 20; ++user) {
    const auto out = gsp.serve_stream(
        {user, static_cast<std::uint32_t>(user % 3), 0, 8, 0});
    ASSERT_EQ(out.status, service::ReleaseStatus::kGranted);
    ASSERT_EQ(out.vector.size(), 7u);
    for (const std::int32_t count : out.vector) {
      EXPECT_GE(count, 0);
      saturated += count == std::numeric_limits<std::int32_t>::max();
      zero += count == 0;
    }
  }
  EXPECT_GT(saturated, 0u);
  EXPECT_GT(zero, 0u);
}

TEST(ReleaseService, ServeStreamIsDeterministicAcrossInstances) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const FakeStreamSource source;
  const std::vector<service::StreamRequest> trace = {
      {1, 0, 0, 4, 0}, {2, 1, 2, 6, 1}, {1, 2, 0, 8, 1}, {3, 0, 2, 6, 1}};

  const auto run = [&] {
    service::ReleaseService gsp(city.db, cloaker, two_policy_config());
    gsp.attach_stream_source(&source);
    std::vector<service::ReleaseResult> out;
    for (const auto& request : trace) out.push_back(gsp.serve_stream(request));
    return out;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "request " << i;
  }
  EXPECT_EQ(a[0].status, service::ReleaseStatus::kGranted);
}

TEST(ReleaseService, RenewWindowRestoresBudgetWithoutEviction) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::ServiceConfig config = two_policy_config();
  config.session_renew_epochs = 2;  // w-event renewal, no TTL eviction
  service::ReleaseService gsp(city.db, cloaker, config);
  const FakeStreamSource source;
  gsp.attach_stream_source(&source);

  // Exhaust user 7: a 3-window block costs 3.0 of the 3.5 ceiling.
  ASSERT_EQ(gsp.serve_stream({7, 0, 0, 4, 0}).status,
            service::ReleaseStatus::kGranted);
  ASSERT_EQ(gsp.serve_stream({7, 0, 0, 4, 0}).status,
            service::ReleaseStatus::kBudgetExhausted);

  // Epoch 1 is inside renewal window 0: still exhausted.
  gsp.advance_epoch();
  EXPECT_EQ(gsp.serve_stream({7, 0, 0, 4, 0}).status,
            service::ReleaseStatus::kBudgetExhausted);
  EXPECT_EQ(gsp.session_stats().renewals, 0u);

  // Epoch 2 opens renewal window 1: every resident budget renews in
  // place — same session (no eviction, no re-create), fresh budget.
  gsp.advance_epoch();
  EXPECT_EQ(gsp.session_stats().renewals, 1u);
  const auto renewed = gsp.serve_stream({7, 0, 0, 4, 0});
  EXPECT_EQ(renewed.status, service::ReleaseStatus::kGranted);
  EXPECT_DOUBLE_EQ(renewed.spent.epsilon, 3.0);
  EXPECT_EQ(gsp.session_stats().sessions_created, 1u);
  EXPECT_EQ(gsp.session_stats().evictions_ttl, 0u);
  EXPECT_EQ(gsp.num_users(), 1u);
}

TEST(ReleaseService, BatchSizeNeverChangesReleases) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const auto trace = service::requests_of(
      service::generate_workload(city, small_workload()));

  const auto run = [&](std::size_t max_batch) {
    service::ServiceConfig config = two_policy_config();
    config.max_batch = max_batch;
    service::ReleaseService gsp(city.db, cloaker, config);
    const auto results = gsp.serve(trace);
    return std::make_pair(results, gsp.stats());
  };

  const auto [one_by_one, stats_1] = run(1);
  const auto [big_batch, stats_256] = run(256);
  EXPECT_EQ(big_batch, one_by_one);
  // Effective cache counters agree too: a batch-coalesced request counts
  // as the hit it would have been served one-by-one.
  EXPECT_EQ(stats_256.cache_hits, stats_1.cache_hits);
  EXPECT_EQ(stats_256.cache_misses, stats_1.cache_misses);
  EXPECT_GT(stats_1.batches, stats_256.batches);
}

TEST(ReleaseService, EnqueueFlushMatchesServe) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  const auto trace = repeat_request(5, 4);

  service::ReleaseService served(city.db, cloaker, two_policy_config());
  const auto direct = served.serve(trace);

  service::ReleaseService queued(city.db, cloaker, two_policy_config());
  for (const auto& request : trace) queued.enqueue(request);
  EXPECT_EQ(queued.pending(), trace.size());  // below max_batch, no drain
  const auto flushed = queued.flush();
  EXPECT_EQ(queued.pending(), 0u);
  EXPECT_EQ(flushed, direct);

  // serve() refuses to interleave with a partially enqueued batch.
  queued.enqueue(trace.front());
  EXPECT_THROW(queued.serve(trace), std::logic_error);
}

TEST(ReleaseService, BitIdenticalAcrossThreadCounts) {
  const poi::City city = make_city();
  const auto cloaker = make_cloaker(city.db);
  service::WorkloadConfig workload = small_workload();
  workload.num_users = 10;
  const auto trace =
      service::requests_of(service::generate_workload(city, workload));
  ASSERT_EQ(trace.size(), 50u);

  struct Pass {
    std::vector<service::ReleaseResult> results;
    service::ServiceStats stats;
    service::ReleaseCacheStats cache;
  };
  const auto run = [&](std::size_t threads) {
    common::set_default_thread_count(threads);
    service::ReleaseService gsp(city.db, cloaker, two_policy_config());
    Pass pass;
    pass.results = gsp.serve(trace);
    pass.stats = gsp.stats();
    pass.cache = gsp.cache_stats();
    return pass;
  };

  const Pass baseline = run(1);
  // Guard against vacuous comparisons: the trace must exercise every
  // interesting path (cache hits and at least one degraded admission).
  EXPECT_GT(baseline.stats.cache_hits, 0u);
  EXPECT_GT(baseline.stats.cache_misses, 0u);
  EXPECT_GT(baseline.stats.degraded + baseline.stats.budget_exhausted, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const Pass pass = run(threads);
    EXPECT_EQ(pass.results, baseline.results) << "threads=" << threads;
    EXPECT_EQ(pass.stats, baseline.stats) << "threads=" << threads;
    EXPECT_EQ(pass.cache, baseline.cache) << "threads=" << threads;
  }
  common::set_default_thread_count(0);
}

TEST(Workload, TraceShapeAndDeterminism) {
  const poi::City city = make_city();
  const service::WorkloadConfig config = small_workload();
  const auto trace = service::generate_workload(city, config);
  ASSERT_EQ(trace.size(), config.num_users * config.requests_per_user);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].time, trace[i].time);  // sorted by arrival
  }
  for (const auto& timed : trace) {
    EXPECT_LT(timed.request.user_id, config.num_users);
    EXPECT_GT(timed.request.radius, 0.0);
    EXPECT_LT(timed.request.policy, config.policy_weights.size());
  }
  EXPECT_EQ(service::generate_workload(city, config), trace);
}

TEST(Workload, UserStreamsStableUnderPopulationGrowth) {
  const poi::City city = make_city();
  service::WorkloadConfig small = small_workload();
  small.num_users = 4;
  service::WorkloadConfig large = small;
  large.num_users = 8;

  const auto per_user = [](const std::vector<service::TimedRequest>& trace,
                           service::UserId user) {
    std::vector<service::TimedRequest> out;
    for (const auto& timed : trace) {
      if (timed.request.user_id == user) out.push_back(timed);
    }
    return out;
  };

  const auto few = service::generate_workload(city, small);
  const auto many = service::generate_workload(city, large);
  // User u's whole day derives from substream(u): adding users must not
  // perturb the requests of the users already present.
  for (service::UserId user = 0; user < 4; ++user) {
    EXPECT_EQ(per_user(few, user), per_user(many, user)) << "user " << user;
  }
}

}  // namespace
}  // namespace poiprivacy
