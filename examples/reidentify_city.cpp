// City-wide re-identification sweep: measures how much of a city is
// re-identifiable from POI aggregates at different query ranges, for both
// cities and all four location datasets.
//
//   ./examples/reidentify_city [--seed N] [--locations N] [--threads N]
//                              [--metrics[=F]]
#include <iostream>

#include "common/flags.h"
#include "common/stats.h"
#include "eval/datasets.h"
#include "eval/runner.h"
#include "eval/table.h"

using namespace poiprivacy;

int main(int argc, char** argv) try {
  const common::Flags flags(argc, argv,
                            {"seed", "locations", common::Flags::kThreadsFlag,
                             common::Flags::kMetricsFlag});
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  eval::WorkbenchConfig config;
  config.seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(42)));
  config.locations_per_dataset =
      static_cast<std::size_t>(flags.get("locations",
                                         static_cast<std::int64_t>(250)));
  const std::size_t threads = flags.apply_threads_flag();
  flags.apply_metrics_flag();

  std::cout << "building cities and datasets (seed " << config.seed
            << ", " << config.locations_per_dataset
            << " locations per dataset, " << threads << " threads)...\n";
  const eval::Workbench bench(config);

  eval::print_section(std::cout,
                      "baseline region re-identification success rate");
  eval::Table table({"dataset", "r=0.5km", "r=1.0km", "r=2.0km", "r=4.0km"});
  for (const eval::DatasetKind kind : eval::kAllDatasets) {
    const poi::PoiDatabase& db = bench.city_of(kind).db;
    std::vector<std::string> row{eval::dataset_name(kind)};
    for (const double r : {0.5, 1.0, 2.0, 4.0}) {
      const eval::AttackStats stats = eval::evaluate_attack(
          db, bench.locations(kind), r, eval::identity_release(db));
      row.push_back(common::fmt(stats.success_rate()));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& error) {
  return common::usage_error(argv[0], error);
}
