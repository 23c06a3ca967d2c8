// Trajectory-uniqueness attack walkthrough: generate taxi traces, train
// the SVR distance regressor on historical release pairs, then attack a
// fresh pair of successive aggregate releases step by step.
//
//   ./examples/trajectory_attack_demo [--seed N] [--r KM]
#include <iostream>

#include "attack/trajectory_attack.h"
#include "common/flags.h"
#include "common/stats.h"
#include "poi/city_model.h"
#include "traj/generators.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv, {"seed", "r"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const double r = flags.get("r", 1.0);

  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  const poi::PoiDatabase& db = city.db;

  std::cout << "generating taxi trajectories (T-drive stand-in)...\n";
  common::Rng rng(seed + 3);
  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = 150;
  taxi_config.points_per_taxi = 60;
  const auto trajectories =
      traj::generate_taxi_trajectories(city, taxi_config, rng);

  const auto pairs =
      traj::extract_release_pairs(trajectories, db, r, 10 * 60);
  std::cout << "qualifying successive-release pairs (changed vector, gap "
               "<= 10 min): "
            << pairs.size() << "\n";
  if (pairs.size() < 40) {
    std::cout << "not enough pairs; increase --seed variety or taxi count\n";
    return 1;
  }

  const std::size_t half = pairs.size() / 2;
  const attack::TrajectoryAttackConfig config;
  const attack::TrajectoryAttack attack(
      db, std::span(pairs.data(), half), r, config, rng);
  std::cout << "SVR distance regressor trained on " << half
            << " historical pairs; validation MAE = "
            << common::fmt(attack.validation_mae_km(), 2)
            << " km, filter tolerance = "
            << common::fmt(attack.tolerance_km(), 2) << " km\n\n";

  // Walk through the first few ambiguous cases the pair filter resolves.
  std::size_t shown = 0;
  std::size_t single = 0;
  std::size_t enhanced = 0;
  std::size_t attempts = 0;
  for (std::size_t i = half; i < pairs.size(); ++i) {
    const traj::ReleasePair& pair = pairs[i];
    const attack::PairInferenceResult result =
        attack.infer(db.freq(pair.first, r), db.freq(pair.second, r),
                     pair.first_time, pair.second_time);
    ++attempts;
    single += result.baseline_unique();
    enhanced += result.enhanced_unique();
    if (!result.baseline_unique() && result.enhanced_unique() && shown < 3) {
      ++shown;
      std::cout << "pair #" << i << ": single-release attack ambiguous ("
                << result.first.candidates.size()
                << " candidates); travelled distance estimated at "
                << common::fmt(result.estimated_distance_km, 2)
                << " km (actual " << common::fmt(pair.distance_km(), 2)
                << " km) -> unique candidate after pair filtering, "
                << common::fmt(
                       geo::distance(
                           db.poi(result.filtered_first_candidates.front())
                               .pos,
                           pair.first),
                       2)
                << " km from the true location\n";
    }
  }
  std::cout << "\nsummary over " << attempts << " attacked pairs (r = " << r
            << " km):\n";
  std::cout << "  single-release success: "
            << common::fmt(static_cast<double>(single) / attempts) << "\n";
  std::cout << "  two-release success:    "
            << common::fmt(static_cast<double>(enhanced) / attempts) << "\n";
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
