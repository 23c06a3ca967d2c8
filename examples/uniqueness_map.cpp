// Visualize location uniqueness: ASCII heatmap of which parts of the city
// can be re-identified from an honest aggregate release.
//
//   ./examples/uniqueness_map [--seed N] [--r KM] [--cell KM] [--city beijing|nyc]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "eval/uniqueness.h"
#include "poi/city_model.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv, {"seed", "r", "cell", "city"});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  const double r = flags.get("r", 1.0);
  const double cell = flags.get("cell", 0.8);
  const std::string which = flags.get("city", std::string("beijing"));

  const poi::CityPreset preset =
      which == "nyc" ? poi::nyc_preset() : poi::beijing_preset();
  const poi::City city = poi::generate_city(preset, seed);

  std::cout << "city: " << city.db.city_name() << ", r = " << r
            << " km, grid pitch = " << cell << " km\n";
  const eval::UniquenessMap map = eval::analyze_uniqueness(city.db, r, cell);
  std::cout << "'#' = re-identifiable, '.' = ambiguous, ' ' = no POI in "
               "range\n\n";
  std::cout << eval::render_ascii(map);
  std::cout << "\nuniqueness ratio: "
            << common::fmt(map.uniqueness_ratio()) << " ("
            << map.count(eval::CellOutcome::kUnique) << " of "
            << map.cells.size() - map.count(eval::CellOutcome::kEmpty)
            << " populated cells)\n";
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
