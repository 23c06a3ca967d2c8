// Defense pipeline walkthrough: a user's aggregate release protected by
// each mechanism in turn, with the attack's view and the utility of every
// variant side by side.
//
//   ./examples/private_release [--seed N] [--r KM]
#include <iostream>

#include "attack/region_reid.h"
#include "cloak/kcloak.h"
#include "common/flags.h"
#include "common/stats.h"
#include "defense/location_defenses.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "eval/table.h"
#include "poi/city_model.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv, {"seed", "r"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const double r = flags.get("r", 2.0);

  const poi::City city = poi::generate_city(poi::beijing_preset(), seed);
  const poi::PoiDatabase& db = city.db;
  common::Rng rng(seed + 1);
  const geo::Point user{rng.uniform(8.0, 32.0), rng.uniform(8.0, 32.0)};
  const poi::FrequencyVector truth = db.freq(user, r);
  const attack::RegionReidentifier reid(db);

  common::Rng pop_rng(seed + 2);
  const cloak::AdaptiveIntervalCloaker cloaker(
      cloak::uniform_population(db.bounds(), 10000, pop_rng), db.bounds());

  struct Variant {
    std::string name;
    poi::FrequencyVector release;
  };
  std::vector<Variant> variants;
  variants.push_back({"unprotected", truth});

  const defense::Sanitizer sanitizer(db, 10);
  variants.push_back({"sanitized (<=10)", sanitizer.sanitize(truth)});

  const defense::GeoIndDefense geoind(db, 0.1, 0.1);
  variants.push_back({"geo-ind eps=0.1", geoind.release(user, r, rng)});

  const defense::KCloakDefense kcloak(db, cloaker, 20);
  variants.push_back({"k-cloak k=20", kcloak.release(user, r)});

  const defense::OptimizationDefense optimization(db, 0.03);
  variants.push_back({"optimization b=0.03", optimization.release(truth)});

  defense::DpDefenseConfig dp_config;
  dp_config.epsilon = 1.0;
  dp_config.beta = 0.03;
  const defense::DpDefense dp(db, cloaker, dp_config);
  variants.push_back({"DP eps=1.0 b=0.03", dp.release(user, r, rng)});

  std::cout << "user at (" << user.x << ", " << user.y << "), r = " << r
            << " km, |F| = " << poi::total(truth) << " POIs\n";
  eval::Table table({"release", "candidates", "re-identified",
                     "top-10 jaccard"});
  for (const Variant& variant : variants) {
    const attack::ReidResult result = reid.infer(variant.release, r);
    table.add_row(
        {variant.name, std::to_string(result.candidates.size()),
         attack::attack_success(result, db, user, r) ? "YES" : "no",
         common::fmt(poi::top_k_jaccard(truth, variant.release, 10))});
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
