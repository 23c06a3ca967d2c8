// Figure 8: success rate of the single-release attack vs the enhanced
// attack exploiting two successive releases (trajectory uniqueness), on
// Beijing T-drive-style taxi trajectories.
//
// Pairs satisfy the paper's requirements: the two frequency vectors
// differ and the duration is below 10 minutes. The SVR distance regressor
// is trained on one half of the pairs and the attack evaluated on the
// other half.
#include <iostream>

#include "attack/trajectory_attack.h"
#include "bench_common.h"
#include "eval/runner.h"
#include "scenarios/scenarios.h"
#include "traj/generators.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const auto max_pairs = static_cast<std::size_t>(options.flags.get(
      "pairs", static_cast<std::int64_t>(options.full ? 4000 : 900)));
  options.print_context(
      "Figure 8 — exploiting two successive queries (T-drive Beijing)");
  const eval::Workbench workbench(options.workbench_config());
  const poi::PoiDatabase& db = workbench.beijing().db;

  eval::print_section(std::cout,
                      "Fig. 8 — single release vs two successive releases");
  eval::Table table({"r_km", "single release", "two releases", "gain",
                     "pairs", "SVR MAE km"});
  for (const double r : kQueryRangesKm) {
    std::vector<traj::ReleasePair> pairs = traj::extract_release_pairs(
        workbench.taxi_trajectories(), db, r, 10 * 60);
    if (pairs.size() > max_pairs) pairs.resize(max_pairs);
    if (pairs.size() < 20) {
      table.add_row({common::fmt(r, 1), "-", "-", "-",
                     std::to_string(pairs.size()), "-"});
      continue;
    }
    const std::size_t half = pairs.size() / 2;
    common::Rng rng(options.seed + static_cast<std::uint64_t>(r * 10));
    const attack::TrajectoryAttackConfig config;
    const attack::TrajectoryAttack attack(
        db, std::span(pairs.data(), half), r, config, rng);

    std::size_t single = 0;
    std::size_t enhanced = 0;
    std::size_t attempts = 0;
    for (std::size_t i = half; i < pairs.size(); ++i) {
      const traj::ReleasePair& pair = pairs[i];
      const attack::PairInferenceResult result =
          attack.infer(db.freq(pair.first, r), db.freq(pair.second, r),
                       pair.first_time, pair.second_time);
      ++attempts;
      const auto correct = [&](const std::vector<poi::PoiId>& candidates) {
        return candidates.size() == 1 &&
               geo::distance(db.poi(candidates.front()).pos, pair.first) <=
                   r + 1e-9;
      };
      single += correct(result.first.candidates);
      enhanced += correct(result.filtered_first_candidates);
    }
    const double single_rate = static_cast<double>(single) / attempts;
    const double enhanced_rate = static_cast<double>(enhanced) / attempts;
    std::string gain = "+";  // not "+" + fmt(...): GCC 12 -Wrestrict
    gain += common::fmt(enhanced_rate - single_rate);
    table.add_row({common::fmt(r, 1), common::fmt(single_rate),
                   common::fmt(enhanced_rate), gain,
                   std::to_string(attempts),
                   common::fmt(attack.validation_mae_km(), 2)});
  }
  table.print(std::cout);
  eval::print_note(std::cout,
                   "paper: gains of +0.203 / +0.146 / +0.090 / +0.001 for "
                   "r = 0.5 / 1 / 2 / 4 km");
  return 0;
}

}  // namespace

void register_fig08_trajectory(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "fig08_trajectory",
      .description = "Fig. 8: two successive releases vs a single release "
                     "(trajectory uniqueness)",
      .extra_flags = {"pairs"},
      .smoke_args = {"--locations", "10", "--pairs", "60", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
