// Quickstart: generate a city, release one POI aggregate, re-identify the
// user from it, then protect the release with the DP defense.
//
//   ./examples/quickstart [--seed N]
#include <iostream>

#include "attack/fine_grained.h"
#include "attack/region_reid.h"
#include "cloak/kcloak.h"
#include "common/flags.h"
#include "defense/opt_defense.h"
#include "eval/runner.h"
#include "poi/city_model.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv, {"seed"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));

  // 1. A synthetic Beijing: ~10k POIs, 177 types, clustered like a city.
  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  const poi::PoiDatabase& db = city.db;
  std::cout << "city: " << db.city_name() << ", " << db.pois().size()
            << " POIs, " << db.num_types() << " types\n";

  // 2. A user at the city centre releases F(l, r): the counts of each POI
  //    type within r = 1 km. No coordinates leave the device.
  common::Rng rng(seed);
  const geo::Point user{rng.uniform(10.0, 20.0), rng.uniform(10.0, 20.0)};
  const double r = 1.0;
  const poi::FrequencyVector released = db.freq(user, r);
  std::cout << "released aggregate: " << poi::total(released)
            << " POIs across " << db.num_types() << " type bins\n";

  // 3. The attacker re-identifies the user from the aggregate alone.
  const attack::RegionReidentifier reid(db);
  const attack::ReidResult result = reid.infer(released, r);
  std::cout << "baseline attack: " << result.candidates.size()
            << " candidate region(s)\n";
  if (result.unique()) {
    const geo::Point anchor = db.poi(result.candidates.front()).pos;
    std::cout << "  -> re-identified to within " << r << " km of ("
              << anchor.x << ", " << anchor.y << "); true user at ("
              << user.x << ", " << user.y << "), distance "
              << geo::distance(anchor, user) << " km\n";

    // 4. The fine-grained attack shrinks the search area below pi r^2.
    const attack::FineGrainedAttack fine(db);
    const attack::FineGrainedResult fg = fine.infer(released, r);
    std::cout << "fine-grained attack: " << fg.aux_anchors.size()
              << " auxiliary anchors, search area " << fg.area_km2
              << " km^2 (baseline " << M_PI * r * r << " km^2)\n";
  }

  // 5. The DP defense: k-cloaked dummies + Gaussian noise + optimization.
  common::Rng pop_rng(seed + 7);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 10000, pop_rng), db.bounds());
  defense::DpDefenseConfig dp_config;
  dp_config.epsilon = 1.0;
  const defense::DpDefense dp(db, cloaker, dp_config);
  const poi::FrequencyVector private_release = dp.release(user, r, rng);
  const attack::ReidResult attacked = reid.infer(private_release, r);
  std::cout << "after DP defense: attack finds " << attacked.candidates.size()
            << " candidate(s), success="
            << (attack::attack_success(attacked, db, user, r) ? "yes" : "no")
            << ", top-10 Jaccard utility="
            << poi::top_k_jaccard(released, private_release, 10) << "\n";
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
