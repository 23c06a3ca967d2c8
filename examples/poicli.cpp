// poicli — command-line front end for the library, the way a downstream
// user would drive it on their own POI data (any CSV in the documented
// schema works; `generate` produces synthetic cities in that schema).
//
//   poicli generate   --city beijing|nyc --seed N --out FILE
//   poicli attack     --db FILE --x KM --y KM --r KM
//   poicli protect    --db FILE --x KM --y KM --r KM
//                     --mechanism sanitize|geoind|kcloak|opt|dp
//                     [--beta B] [--epsilon E] [--k K]
//   poicli uniqueness --db FILE --r KM [--cell KM]
#include <iostream>
#include <optional>

#include "attack/fine_grained.h"
#include "attack/region_reid.h"
#include "cloak/kcloak.h"
#include "common/flags.h"
#include "common/stats.h"
#include "defense/location_defenses.h"
#include "defense/opt_defense.h"
#include "defense/sanitizer.h"
#include "eval/uniqueness.h"
#include "poi/city_model.h"
#include "poi/csv.h"

using namespace poiprivacy;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  poicli generate   --city beijing|nyc [--seed N] --out FILE\n"
            << "  poicli attack     --db FILE --x KM --y KM --r KM\n"
            << "  poicli protect    --db FILE --x KM --y KM --r KM\n"
            << "                    --mechanism sanitize|geoind|kcloak|opt|dp\n"
            << "                    [--beta B] [--epsilon E] [--k K]\n"
            << "  poicli uniqueness --db FILE --r KM [--cell KM]\n";
  return 2;
}

int cmd_generate(const common::Flags& flags) {
  const std::string which = flags.get("city", std::string("beijing"));
  const std::string out = flags.get("out", std::string());
  if (out.empty()) return usage();
  const poi::CityPreset preset =
      which == "nyc" ? poi::nyc_preset() : poi::beijing_preset();
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const poi::City city = poi::generate_city(preset, seed);
  poi::save_csv(city.db, out);
  std::cout << "wrote " << city.db.pois().size() << " POIs ("
            << city.db.num_types() << " types) to " << out << "\n";
  return 0;
}

std::optional<geo::Point> parse_location(const common::Flags& flags) {
  if (!flags.has("x") || !flags.has("y")) return std::nullopt;
  return geo::Point{flags.get("x", 0.0), flags.get("y", 0.0)};
}

int cmd_attack(const common::Flags& flags) {
  const std::string path = flags.get("db", std::string());
  const auto location = parse_location(flags);
  const double r = flags.get("r", 0.0);
  if (path.empty() || !location || r <= 0.0) return usage();
  const poi::PoiDatabase db = poi::load_csv(path);

  const poi::FrequencyVector released = db.freq(*location, r);
  std::cout << "release F(l, r): " << poi::total(released)
            << " POIs across " << db.num_types() << " types\n";

  const attack::RegionReidentifier reid(db);
  const attack::ReidResult result = reid.infer(released, r);
  std::cout << "baseline attack: " << result.candidates.size()
            << " candidate(s)";
  if (result.pivot_type) {
    std::cout << ", pivot type " << db.types().name(*result.pivot_type);
  }
  std::cout << "\n";
  if (!result.unique()) return 0;

  const geo::Point anchor = db.poi(result.candidates.front()).pos;
  std::cout << "  -> user within " << r << " km of (" << anchor.x << ", "
            << anchor.y << ")\n";
  const attack::FineGrainedAttack fine(db);
  const attack::FineGrainedResult fg = fine.infer(released, r);
  std::cout << "fine-grained: " << fg.aux_anchors.size()
            << " auxiliary anchors -> search area "
            << common::fmt(fg.area_km2, 3) << " km^2 (baseline "
            << common::fmt(M_PI * r * r, 3) << " km^2)\n";
  return 0;
}

int cmd_protect(const common::Flags& flags) {
  const std::string path = flags.get("db", std::string());
  const auto location = parse_location(flags);
  const double r = flags.get("r", 0.0);
  const std::string mechanism =
      flags.get("mechanism", std::string("dp"));
  if (path.empty() || !location || r <= 0.0) return usage();
  const poi::PoiDatabase db = poi::load_csv(path);
  const double beta = flags.get("beta", 0.02);
  const double epsilon = flags.get("epsilon", 1.0);
  const auto k = static_cast<std::size_t>(
      flags.get("k", static_cast<std::int64_t>(20)));
  common::Rng rng(static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42))));

  const poi::FrequencyVector truth = db.freq(*location, r);
  poi::FrequencyVector released;
  if (mechanism == "sanitize") {
    released = defense::Sanitizer(db, 10).sanitize(truth);
  } else if (mechanism == "geoind") {
    released = defense::GeoIndDefense(db, epsilon, 0.1)
                   .release(*location, r, rng);
  } else if (mechanism == "kcloak" || mechanism == "dp") {
    common::Rng pop_rng(7);
    const cloak::AdaptiveIntervalCloaker cloaker(
        cloak::uniform_population(db.bounds(), 10000, pop_rng), db.bounds());
    if (mechanism == "kcloak") {
      released = defense::KCloakDefense(db, cloaker, k).release(*location, r);
    } else {
      defense::DpDefenseConfig config;
      config.epsilon = epsilon;
      config.beta = beta;
      config.k = k;
      released = defense::DpDefense(db, cloaker, config)
                     .release(*location, r, rng);
    }
  } else if (mechanism == "opt") {
    released = defense::OptimizationDefense(db, beta).release(truth);
  } else {
    return usage();
  }

  std::cout << "mechanism: " << mechanism << "\n";
  std::cout << "released " << poi::total(released)
            << " POI counts; L1 distortion vs truth = "
            << poi::l1_distance(truth, released) << "\n";
  std::cout << "top-10 Jaccard utility: "
            << common::fmt(poi::top_k_jaccard(truth, released, 10)) << "\n";
  const attack::RegionReidentifier reid(db);
  const attack::ReidResult result = reid.infer(released, r);
  std::cout << "attack on the protected release: "
            << result.candidates.size() << " candidate(s), re-identified: "
            << (attack::attack_success(result, db, *location, r) ? "YES"
                                                                 : "no")
            << "\n";
  return 0;
}

int cmd_uniqueness(const common::Flags& flags) {
  const std::string path = flags.get("db", std::string());
  const double r = flags.get("r", 0.0);
  if (path.empty() || r <= 0.0) return usage();
  const double cell = flags.get("cell", 1.0);
  const poi::PoiDatabase db = poi::load_csv(path);
  const eval::UniquenessMap map = eval::analyze_uniqueness(db, r, cell);
  std::cout << eval::render_ascii(map);
  std::cout << "uniqueness ratio at r = " << r << " km: "
            << common::fmt(map.uniqueness_ratio()) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const common::Flags flags(
      argc, argv,
      {"city", "seed", "out", "db", "x", "y", "r", "mechanism", "beta",
       "epsilon", "k", "cell"});
  if (flags.help_requested()) {
    usage();
    return 0;
  }
  if (flags.positional().size() != 1) return usage();
  const std::string& command = flags.positional().front();
  if (command == "generate") return cmd_generate(flags);
  if (command == "attack") return cmd_attack(flags);
  if (command == "protect") return cmd_protect(flags);
  if (command == "uniqueness") return cmd_uniqueness(flags);
  return usage();
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
