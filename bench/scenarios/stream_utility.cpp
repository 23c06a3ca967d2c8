// Continual-release utility frontier: Top-K Jaccard of the noised
// per-tile aggregate stream against the raw stream, swept over the
// per-window Laplace budget (eps 0.1 -> 10) and the window length.
//
// This is the utility half of the mia_dp_sweep trade-off: mia_dp_sweep
// shows the distinguisher's AUC falling as epsilon shrinks; this
// scenario shows what the analyst loses at the same budgets. Per
// released window we compare the noised ROI count vector to the raw one
// (Top-K Jaccard — the paper's utility metric — plus mean L1 per
// window) and average over the stream; the windowed dp::Ledger runs
// alongside, so the table's realized peak-window epsilon is the
// accountant's, not the config's. `--json FILE` writes the sweep as one
// JSON document (scripts/bench.sh commits it as
// BENCH_stream_utility.json and asserts Jaccard is monotone in
// epsilon).
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "attack/attack_context.h"
#include "dp/ledger.h"
#include "eval/json.h"
#include "eval/runner.h"
#include "mia_common.h"
#include "scenarios/scenarios.h"

namespace poiprivacy::bench {

namespace {

int run(const eval::BenchOptions& options) {
  const std::string json_path = options.flags.get("json", std::string());
  options.print_context(
      "Continual-release utility — Top-K Jaccard of the noised aggregate "
      "stream vs the raw stream, per-window Laplace at eps 0.1 -> 10");
  const eval::Workbench workbench(options.workbench_config());
  const attack::AttackContext ctx(workbench.beijing().db);
  const mia::MobilityConfig mobility = mia_mobility_config(options);
  const mia::UserTraces traces =
      mia::generate_traces(ctx, mobility, options.seed + 1);
  const auto roi_tiles = static_cast<std::size_t>(
      options.flags.get("roi", static_cast<std::int64_t>(128)));
  const auto top_k = static_cast<std::size_t>(
      options.flags.get("topk", static_cast<std::int64_t>(16)));
  const std::size_t roi_epochs = mobility.epochs / 2;

  // The whole population is the released group — the aggregator's view.
  std::vector<std::uint32_t> group(mobility.num_users);
  for (std::size_t u = 0; u < group.size(); ++u) {
    group[u] = static_cast<std::uint32_t>(u);
  }

  const std::size_t window_counts[] = {1, 2, 4};
  const double epsilons[] = {0.1, 0.5, 1.0, 2.0, 5.0, 10.0};

  eval::JsonWriter json;
  json.begin_object();
  json.field("scenario", "stream_utility");
  json.field("seed", static_cast<std::uint64_t>(options.seed));
  json.field("users", static_cast<std::uint64_t>(mobility.num_users));
  json.field("epochs", static_cast<std::uint64_t>(mobility.epochs));
  json.field("roi_tiles", static_cast<std::uint64_t>(roi_tiles));
  json.field("top_k", static_cast<std::uint64_t>(top_k));
  json.key("rows");
  json.begin_array();

  eval::Table table({"window epochs", "epsilon", "windows",
                     "top-k jaccard", "mean L1/window", "peak window eps"});
  const common::Rng noise_base(options.seed + 7);
  std::uint64_t arm = 0;
  for (const std::size_t window_epochs : window_counts) {
    mia::StreamConfig config;
    config.window_epochs = window_epochs;
    config.stride = 1;
    config.epsilon = 0.0;
    config.accounting = {window_epochs, 0.0};
    const mia::AggregateStreamReleaser raw_releaser(traces, config, roi_tiles,
                                                    roi_epochs);
    poi::FreqArena raw;
    common::Rng raw_rng(0);  // the raw path draws nothing
    raw_releaser.release(group, 0, mobility.epochs, raw_rng, raw);
    const std::size_t windows = raw.rows();

    for (const double eps : epsilons) {
      mia::StreamConfig noised_config = config;
      noised_config.epsilon = eps;
      const mia::AggregateStreamReleaser releaser(traces, noised_config,
                                                  roi_tiles, roi_epochs);
      dp::Ledger ledger(dp::LedgerConfig{
          .policy = dp::LedgerPolicy::kWindowedRenewal,
          .window = noised_config.accounting,
      });
      common::Rng rng = noise_base.substream(arm++);
      poi::FreqArena noised;
      releaser.release(group, 0, mobility.epochs, rng, noised, &ledger);

      double jaccard_sum = 0.0;
      double l1_sum = 0.0;
      for (std::size_t w = 0; w < windows; ++w) {
        const std::span<const std::int32_t> a = raw.row(w);
        const std::span<const std::int32_t> b = noised.row(w);
        jaccard_sum += poi::top_k_jaccard(a, b, top_k);
        for (std::size_t i = 0; i < a.size(); ++i) {
          l1_sum += std::abs(static_cast<double>(a[i]) - b[i]);
        }
      }
      const double mean_jaccard =
          windows == 0 ? 1.0 : jaccard_sum / static_cast<double>(windows);
      const double mean_l1 =
          windows == 0 ? 0.0 : l1_sum / static_cast<double>(windows);
      const double peak = ledger.peak_window_composition().epsilon;

      table.add_row({std::to_string(window_epochs), common::fmt(eps, 1),
                     std::to_string(windows), common::fmt(mean_jaccard),
                     common::fmt(mean_l1, 1), common::fmt(peak, 1)});
      json.begin_object();
      json.field("window_epochs", static_cast<std::uint64_t>(window_epochs));
      json.field("epsilon", eps);
      json.field("windows", static_cast<std::uint64_t>(windows));
      json.field("top_k_jaccard", mean_jaccard);
      json.field("mean_l1_per_window", mean_l1);
      json.field("peak_window_epsilon", peak);
      json.field("releases", static_cast<std::uint64_t>(ledger.releases()));
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();

  eval::print_section(std::cout, "noised-vs-raw utility per window geometry");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "paper: utility recovers monotonically with epsilon at "
                   "every window length; longer windows pay more noise per "
                   "release (sensitivity grows with the window) and compose "
                   "to a higher realized per-window cost");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "stream_utility: cannot write " << json_path << "\n";
      return 1;
    }
    out << json.str() << "\n";
    if (!out) return 1;
  }
  return 0;
}

}  // namespace

void register_stream_utility(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "stream_utility",
      .description = "Extension: continual-release utility frontier — "
                     "Top-K Jaccard vs per-window epsilon "
                     "(--json FILE for the sweep)",
      .extra_flags = {"users", "epochs", "roi", "topk", "json"},
      .smoke_args = {"--users", "40", "--epochs", "16", "--roi", "48",
                     "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
