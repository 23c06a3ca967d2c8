// Extension experiment: category coarsening as a defense. The user
// releases the 10-bin category histogram instead of the fine type
// histogram; the attacker does its best with a category-level database
// view. Reports attack success and the fine-type information retained
// (fraction of the type-level Top-10 recoverable — zero by construction,
// so utility is reported as the category histogram's own Top-5 fidelity,
// which is perfect, plus the coarsening loss: number of distinct types
// hidden per release).
#include <iostream>

#include "bench_common.h"
#include "eval/runner.h"
#include "poi/categories.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  options.print_context(
      "Extension — category coarsening as an aggregate-level defense");
  const eval::Workbench workbench(options.workbench_config());

  eval::Table table({"dataset", "r_km", "type-level success",
                     "category-level success", "mean types hidden"});
  for (const eval::DatasetKind kind : {eval::DatasetKind::kBeijingTdrive,
                                       eval::DatasetKind::kNycFoursquare}) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    const poi::PoiDatabase view = poi::category_view(db);
    for (const double r : {1.0, 2.0}) {
      const eval::AttackStats fine = eval::evaluate_attack(
          db, workbench.locations(kind), r, eval::identity_release(db));
      const eval::AttackStats coarse = eval::evaluate_attack(
          view, workbench.locations(kind), r, eval::identity_release(view));
      // Coarsening loss: distinct fine types folded away per release.
      double hidden = 0.0;
      for (const geo::Point l : workbench.locations(kind)) {
        const poi::FrequencyVector f = db.freq(l, r);
        std::size_t distinct = 0;
        for (const auto v : f) distinct += v > 0;
        const poi::FrequencyVector c = view.freq(l, r);
        std::size_t categories = 0;
        for (const auto v : c) categories += v > 0;
        hidden += static_cast<double>(distinct) -
                  static_cast<double>(categories);
      }
      hidden /= static_cast<double>(workbench.locations(kind).size());
      table.add_row({eval::dataset_name(kind), common::fmt(r, 1),
                     common::fmt(fine.success_rate()),
                     common::fmt(coarse.success_rate()),
                     common::fmt(hidden, 1)});
    }
  }
  eval::print_section(std::cout, "type-level vs category-level releases");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "coarsening removes the rare-type pivots entirely; the "
                   "price is the hidden fine-type detail that POI-based "
                   "recommenders typically rely on");
  return 0;
}

}  // namespace

void register_ext_category_defense(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "ext_category_defense",
      .description = "Extension: category coarsening as an aggregate-level "
                     "defense",
      .extra_flags = {},
      .smoke_args = {"--locations", "10", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
