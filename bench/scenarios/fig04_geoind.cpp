// Figure 4: success rate of the baseline re-identification attack against
// geo-indistinguishability (planar Laplace, 100 m distance unit) with
// eps in {0.1, 1.0}, on all four datasets and query ranges.
#include <iostream>

#include "bench_common.h"
#include "defense/location_defenses.h"
#include "eval/runner.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  options.print_context(
      "Figure 4 — planar Laplacian (geo-indistinguishability) vs the "
      "region re-identification attack");
  const eval::Workbench workbench(options.workbench_config());

  for (const eval::DatasetKind kind : eval::kAllDatasets) {
    const poi::PoiDatabase& db = workbench.city_of(kind).db;
    eval::print_section(std::cout, std::string("Fig. 4 — ") +
                                       eval::dataset_name(kind));
    eval::Table table({"r_km", "w/o protection", "eps=0.1", "eps=1.0",
                       "mitigated@0.1"});
    for (const double r : kQueryRangesKm) {
      const eval::AttackStats base = eval::evaluate_attack(
          db, workbench.locations(kind), r, eval::identity_release(db));
      double rates[2];
      int i = 0;
      for (const double eps : {0.1, 1.0}) {
        const defense::GeoIndDefense defense(db, eps, 0.1);
        // Seeded release: each location draws from its own RNG substream,
        // so the sweep is deterministic for any --threads value.
        const eval::AttackStats stats = eval::evaluate_attack(
            db, workbench.locations(kind), r,
            [&](geo::Point l, double radius, common::Rng& rng) {
              return defense.release(l, radius, rng);
            },
            options.seed + static_cast<std::uint64_t>(eps * 100));
        rates[i++] = stats.success_rate();
      }
      const double mitigated =
          base.success_rate() > 0.0
              ? 1.0 - rates[0] / base.success_rate()
              : 0.0;
      table.add_row({common::fmt(r, 1), common::fmt(base.success_rate()),
                     common::fmt(rates[0]), common::fmt(rates[1]),
                     common::fmt(100.0 * mitigated, 1) + "%"});
    }
    table.print(std::cout);
  }
  eval::print_note(std::cout,
                   "paper: eps=0.1 mitigates ~80% of attacks at r=0.5 but "
                   "only ~10% at r=4; eps=1.0 barely helps");
  return 0;
}

}  // namespace

void register_fig04_geoind(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig04_geoind",
      .description = "Fig. 4: geo-indistinguishability (planar Laplace) vs "
                     "the baseline attack",
      .extra_flags = {},
      .smoke_args = {"--locations", "10", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
