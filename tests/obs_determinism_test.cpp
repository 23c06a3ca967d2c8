// The observability layer's core contract: instrumentation only observes.
// Running the serving and evaluation pipelines with metrics enabled — and
// scraping the global registry mid-run, which copies and sorts each
// histogram's samples — must leave every released vector, status, and
// evaluation stat bit-identical across --threads 1/2/8. Labelled `tsan` so
// the same scenario runs under ThreadSanitizer (concurrent record() vs
// scrape).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "defense/location_defenses.h"
#include "eval/datasets.h"
#include "eval/runner.h"
#include "obs/metrics.h"
#include "service/workload.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Scrapes the global registry the way an exit dump would: renders both
/// formats, which drains every thread's sample buffer mid-run.
void scrape_global_registry() {
  const std::string json = obs::global_registry().json();
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(obs::global_registry().table().empty());
}

service::ServiceConfig service_config() {
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

eval::WorkbenchConfig eval_config() {
  eval::WorkbenchConfig config;
  config.seed = 4242;
  config.locations_per_dataset = 40;
  config.num_taxis = 8;
  config.points_per_taxi = 15;
  config.num_checkin_users = 8;
  config.checkins_per_user = 8;
  return config;
}

struct ServicePass {
  std::vector<service::ReleaseResult> results;
  service::ServiceStats stats;
  service::ReleaseCacheStats cache;
};

ServicePass run_service_pass(std::size_t threads) {
  common::set_default_thread_count(threads);
  const poi::City city = poi::generate_city(poi::test_preset(), 7);
  common::Rng pop_rng(3);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 500, pop_rng),
      city.db.bounds());
  service::WorkloadConfig workload;
  workload.num_users = 10;
  workload.requests_per_user = 5;
  workload.seed = 11;
  workload.radii = {0.8, 1.5};
  workload.policy_weights = {0.7, 0.3};
  const auto trace =
      service::requests_of(service::generate_workload(city, workload));

  service::ReleaseService gsp(city.db, cloaker, service_config());
  ServicePass pass;
  // Serve in two halves with a registry scrape in between, so the scrape
  // provably cannot perturb in-flight serving state.
  const std::size_t half = trace.size() / 2;
  const std::vector<service::ReleaseRequest> first(trace.begin(),
                                                   trace.begin() + half);
  const std::vector<service::ReleaseRequest> second(trace.begin() + half,
                                                    trace.end());
  pass.results = gsp.serve(first);
  scrape_global_registry();
  const auto rest = gsp.serve(second);
  pass.results.insert(pass.results.end(), rest.begin(), rest.end());
  scrape_global_registry();
  pass.stats = gsp.stats();
  pass.cache = gsp.cache_stats();
  return pass;
}

struct EvalPass {
  eval::AttackStats attack;
  eval::AttackStats attack_seeded;
  eval::FineGrainedStats fine;
  eval::UtilityStats utility_seeded;
};

EvalPass run_eval_pass(std::size_t threads) {
  common::set_default_thread_count(threads);
  const eval::Workbench bench(eval_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto& locations = bench.locations(eval::DatasetKind::kBeijingRandom);
  const double r = 2.0;

  EvalPass pass;
  pass.attack =
      eval::evaluate_attack(db, locations, r, eval::identity_release(db));
  scrape_global_registry();

  const defense::GeoIndDefense defense(db, 0.1, 0.1);
  const eval::SeededReleaseFn noisy =
      [&](geo::Point l, double radius, common::Rng& rng) {
        return defense.release(l, radius, rng);
      };
  pass.attack_seeded = eval::evaluate_attack(db, locations, r, noisy, 99);
  scrape_global_registry();

  attack::FineGrainedConfig fine_config;
  fine_config.area_resolution = 96;
  pass.fine = eval::evaluate_fine_grained(db, locations, r, fine_config);
  scrape_global_registry();

  pass.utility_seeded = eval::evaluate_utility(db, locations, r, noisy, 99);
  scrape_global_registry();
  return pass;
}

TEST(ObsDeterminism, ServiceResultsIdenticalWithMidRunScrapes) {
  const ServicePass baseline = run_service_pass(1);
  // Guard against vacuous comparisons.
  EXPECT_EQ(baseline.stats.requests, 50u);
  EXPECT_GT(baseline.stats.cache_hits, 0u);
  EXPECT_GT(baseline.stats.cache_misses, 0u);

  for (const std::size_t threads : kThreadCounts) {
    const ServicePass pass = run_service_pass(threads);
    EXPECT_EQ(pass.results, baseline.results) << "threads=" << threads;
    EXPECT_EQ(pass.stats, baseline.stats) << "threads=" << threads;
    EXPECT_EQ(pass.cache, baseline.cache) << "threads=" << threads;
  }
  common::set_default_thread_count(0);
  // The parallel pool saw work, and no batch is left mid-flight.
  EXPECT_GT(obs::global_registry().counter("parallel.tasks").value(), 0u);
  EXPECT_EQ(obs::global_registry().gauge("parallel.queue_depth").value(), 0);
}

TEST(ObsDeterminism, EvalResultsIdenticalWithMidRunScrapes) {
  const EvalPass baseline = run_eval_pass(1);
  EXPECT_EQ(baseline.attack.attempts, 40u);
  EXPECT_GT(baseline.attack.unique, 0u);
  EXPECT_GT(baseline.fine.successes, 0u);

  for (const std::size_t threads : kThreadCounts) {
    const EvalPass pass = run_eval_pass(threads);
    EXPECT_EQ(pass.attack, baseline.attack) << "threads=" << threads;
    EXPECT_EQ(pass.attack_seeded, baseline.attack_seeded)
        << "threads=" << threads;
    EXPECT_EQ(pass.fine, baseline.fine) << "threads=" << threads;
    EXPECT_EQ(pass.utility_seeded, baseline.utility_seeded)
        << "threads=" << threads;
  }
  common::set_default_thread_count(0);
}

}  // namespace
}  // namespace poiprivacy
