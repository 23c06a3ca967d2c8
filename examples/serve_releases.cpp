// Multi-user aggregate-release service demo: run a synthetic day-long
// request trace through the GSP serving layer and report admission
// outcomes, the budget-exhaustion curve and release-cache behaviour.
//
//   ./examples/serve_releases [--users N] [--requests N] [--seed N]
//                             [--ceiling E] [--threads N] [--metrics[=F]]
//                             [--help]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "eval/table.h"
#include "poi/city_model.h"
#include "service/workload.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv,
                            {"users", "requests", "seed", "ceiling",
                             common::Flags::kThreadsFlag,
                             common::Flags::kMetricsFlag});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const auto users = static_cast<std::size_t>(
      flags.get("users", static_cast<std::int64_t>(200)));
  const auto requests_per_user = static_cast<std::size_t>(
      flags.get("requests", static_cast<std::int64_t>(18)));
  flags.apply_threads_flag();
  flags.apply_metrics_flag();

  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  common::Rng pop_rng(seed + 1);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 10000, pop_rng),
      city.db.bounds());

  // Two policies: a precise interactive one and a cheap coarse one the
  // admission controller degrades to once the precise budget runs dry.
  service::ServiceConfig config;
  config.policies.push_back(
      {"interactive", {.k = 16, .epsilon = 0.5, .delta = 0.01}});
  config.policies.push_back(
      {"coarse", {.k = 32, .epsilon = 0.1, .delta = 0.001}});
  config.degrade_policy = 1;
  config.epsilon_ceiling = flags.get("ceiling", 4.0);
  config.seed = seed;
  service::ReleaseService gsp(city.db, cloaker, config);

  service::WorkloadConfig workload;
  workload.num_users = users;
  workload.requests_per_user = requests_per_user;
  workload.seed = seed + 2;
  workload.policy_weights = {0.8, 0.2};
  const std::vector<service::TimedRequest> trace =
      service::generate_workload(city, workload);

  std::cout << "serving " << trace.size() << " requests from " << users
            << " users (eps ceiling " << config.epsilon_ceiling << ")\n";
  const std::vector<service::ReleaseResult> results =
      gsp.serve(service::requests_of(trace));

  const service::ServiceStats stats = gsp.stats();
  eval::print_section(std::cout, "admission outcomes");
  eval::Table outcomes({"status", "count", "fraction"});
  for (const service::ReleaseStatus status : service::kAllStatuses) {
    outcomes.add_row({service::status_name(status),
                      std::to_string(stats.count(status)),
                      common::fmt(static_cast<double>(stats.count(status)) /
                                  static_cast<double>(stats.requests))});
  }
  outcomes.print(std::cout);

  // Budget-exhaustion curve: how admission degrades as the day goes on.
  eval::print_section(std::cout, "budget exhaustion over the day");
  eval::Table curve({"trace decile", "granted", "degraded", "refused"});
  const std::size_t buckets = 10;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t lo = trace.size() * b / buckets;
    const std::size_t hi = trace.size() * (b + 1) / buckets;
    std::size_t granted = 0, degraded = 0, refused = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      switch (results[i].status) {
        case service::ReleaseStatus::kGranted: ++granted; break;
        case service::ReleaseStatus::kDegraded: ++degraded; break;
        case service::ReleaseStatus::kBudgetExhausted: ++refused; break;
        case service::ReleaseStatus::kInvalidRequest: break;
      }
    }
    curve.add_row({std::to_string(b + 1), std::to_string(granted),
                   std::to_string(degraded), std::to_string(refused)});
  }
  curve.print(std::cout);

  const service::ReleaseCacheStats cache = gsp.cache_stats();
  eval::print_section(std::cout, "release cache");
  eval::print_note(std::cout,
                   "effective hit rate: " +
                       common::fmt(stats.cache_hit_rate()) + " (" +
                       std::to_string(stats.cache_hits) + " hits / " +
                       std::to_string(stats.cache_misses) + " computes)");
  eval::print_note(std::cout,
                   "resident entries: " + std::to_string(cache.entries) +
                       " of " + std::to_string(gsp.config().cache_capacity) +
                       ", evictions: " + std::to_string(cache.evictions()));
  eval::print_note(std::cout,
                   "users seen: " + std::to_string(gsp.num_users()) +
                       ", batches: " + std::to_string(stats.batches));
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
