// The scenario catalog: every figure-reproduction and ablation benchmark
// as a registered eval::Scenario. Each scenario lives in its own .cpp in
// this directory and exposes one registration function; the scenarios are
// in a static library, so registration is explicit (register_all_scenarios)
// rather than static-initializer magic the linker could drop.
//
// Entry points:
//   * `poibench` (bench/poibench.cpp) — list/run scenarios by name
//     through `run_scenario_main(name, argc, argv)`.
//   * tests — register_all_scenarios() plus the eval::ScenarioRegistry
//     API directly.
#pragma once

#include "eval/scenario.h"

namespace poiprivacy::bench {

void register_fig02_sanitize_accuracy(eval::ScenarioRegistry& registry);
void register_fig03_sanitization(eval::ScenarioRegistry& registry);
void register_fig04_geoind(eval::ScenarioRegistry& registry);
void register_fig05_kcloak(eval::ScenarioRegistry& registry);
void register_fig06_finegrained_cdf(eval::ScenarioRegistry& registry);
void register_fig07_aux_anchors(eval::ScenarioRegistry& registry);
void register_fig08_trajectory(eval::ScenarioRegistry& registry);
void register_fig09_10_nonprivate_defense(eval::ScenarioRegistry& registry);
void register_fig11_12_dp_defense(eval::ScenarioRegistry& registry);
void register_ablation_dp_noise(eval::ScenarioRegistry& registry);
void register_ablation_recovery_models(eval::ScenarioRegistry& registry);
void register_ablation_regressors(eval::ScenarioRegistry& registry);
void register_ablation_robust_attack(eval::ScenarioRegistry& registry);
void register_ext_category_defense(eval::ScenarioRegistry& registry);
void register_ext_chain_attack(eval::ScenarioRegistry& registry);
void register_uniqueness_analysis(eval::ScenarioRegistry& registry);
void register_micro_core(eval::ScenarioRegistry& registry);
void register_service_throughput(eval::ScenarioRegistry& registry);
void register_mia_raw(eval::ScenarioRegistry& registry);
void register_mia_dp_sweep(eval::ScenarioRegistry& registry);
void register_mia_priors(eval::ScenarioRegistry& registry);
void register_linkage_100k(eval::ScenarioRegistry& registry);
void register_stream_utility(eval::ScenarioRegistry& registry);

/// Registers every scenario above into the process-wide registry.
/// Idempotent: safe to call from several entry points in one process.
void register_all_scenarios();

/// Registers everything and runs `name` with the given argv (the entry
/// point behind `poibench --scenario NAME`).
int run_scenario_main(std::string_view name, int argc,
                      const char* const* argv);

}  // namespace poiprivacy::bench
