// Budget-managed release session: a user keeps querying through the DP
// defense while a dp::Ledger tracks composed (eps, delta) —
// tightest-of(basic, advanced) composition — and refuses to release once
// the ceiling would be crossed.
//
//   ./examples/budget_session [--seed N] [--eps E] [--ceiling C]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "defense/opt_defense.h"
#include "dp/ledger.h"
#include "poi/city_model.h"
#include "traj/generators.h"

using namespace poiprivacy;

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv, {"seed", "eps", "ceiling"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  common::Rng pop_rng(seed + 1);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(city.db.bounds(), 10000, pop_rng),
      city.db.bounds());

  defense::DpDefenseConfig release_config;
  release_config.epsilon = flags.get("eps", 0.5);
  release_config.delta = 0.01;
  const dp::PrivacyParams per_release{release_config.epsilon,
                                      release_config.delta};
  const defense::DpDefense defense(city.db, cloaker, release_config);
  dp::Ledger ledger(dp::LedgerConfig{
      .policy = dp::LedgerPolicy::kAdvancedHeterogeneous,
      .backend = dp::LedgerBackend::kExact,
      .epsilon_ceiling = flags.get("ceiling", 4.0),
      .delta_ceiling = 0.5,
      .advanced_slack = 1e-6,
      .window = {},
  });

  // A taxi ride across town, querying every few minutes.
  common::Rng rng(seed + 2);
  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = 1;
  taxi_config.points_per_taxi = 25;
  const auto rides = traj::generate_taxi_trajectories(city, taxi_config, rng);

  std::cout << "per release: eps=" << per_release.epsilon
            << " delta=" << per_release.delta
            << "; session ceiling eps=" << ledger.config().epsilon_ceiling
            << "\n\n";
  for (const traj::TrackPoint& fix : rides.front().points) {
    std::cout << "t+" << fix.time % (24 * 3600) / 60 << "min  ";
    // Admission first: a refused query draws no noise.
    if (ledger.would_exceed(per_release)) {
      std::cout << "REFUSED — privacy budget exhausted after "
                << ledger.releases() << " releases (eps="
                << common::fmt(ledger.spent().epsilon, 2) << ")\n";
      break;
    }
    const poi::FrequencyVector released = defense.release(fix.pos, 1.0, rng);
    ledger.record(per_release);
    const dp::PrivacyParams spent = ledger.spent();
    std::cout << "released " << poi::total(released)
              << " counts; spent eps=" << common::fmt(spent.epsilon, 2)
              << " delta=" << common::fmt(spent.delta, 3) << "\n";
  }
  return 0;
}
