// Generator diagnostics: verify that the synthetic cities exhibit the
// spatial structure the paper's attacks depend on — heavy-tailed type
// counts, citywide clustering (Clark-Evans << 1), and strong within-type
// co-location — and render the density map.
//
//   ./examples/city_stats [--seed N] [--city beijing|nyc] [--map]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "eval/table.h"
#include "poi/city_model.h"
#include "poi/statistics.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv, {"seed", "city", "map"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const std::string which = flags.get("city", std::string("beijing"));
  const poi::CityPreset preset =
      which == "nyc" ? poi::nyc_preset() : poi::beijing_preset();
  const poi::City city = poi::generate_city(preset, seed);
  const poi::PoiDatabase& db = city.db;

  eval::print_section(std::cout, db.city_name() + " — type counts");
  const poi::TypeCountSummary types = poi::summarize_type_counts(db);
  eval::Table count_table({"metric", "value"});
  count_table.add_row({"POIs", std::to_string(db.pois().size())});
  count_table.add_row({"types", std::to_string(db.num_types())});
  count_table.add_row({"min / mean / max count",
                       std::to_string(types.min_count) + " / " +
                           common::fmt(types.mean_count, 1) + " / " +
                           std::to_string(types.max_count)});
  count_table.add_row(
      {"singleton types", std::to_string(types.singleton_types)});
  count_table.add_row({"rare types (<=10)",
                       std::to_string(types.rare_types) +
                           "  (paper: " +
                           std::to_string(preset.target_rare_types) + ")"});
  count_table.add_row({"top-decile mass",
                       common::fmt(types.top_decile_mass)});
  count_table.print(std::cout);

  eval::print_section(std::cout, db.city_name() + " — spatial structure");
  const poi::ClusteringSummary clustering = poi::summarize_clustering(db);
  eval::Table cluster_table({"metric", "value"});
  cluster_table.add_row(
      {"mean NN distance", common::fmt(clustering.mean_nn_km, 3) + " km"});
  cluster_table.add_row(
      {"Clark-Evans ratio (1 = uniform, <1 = clustered)",
       common::fmt(clustering.clark_evans_ratio)});
  cluster_table.add_row({"mean within-type NN distance",
                         common::fmt(clustering.mean_within_type_nn_km, 3) +
                             " km"});
  cluster_table.print(std::cout);

  if (flags.get("map", false)) {
    eval::print_section(std::cout, db.city_name() + " — density map");
    std::cout << poi::render_density(poi::density_grid(db, 1.0));
  }
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
