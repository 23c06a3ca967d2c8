// poibench — the single driver over the scenario catalog.
//
//   poibench --list                      catalog with one line per scenario
//   poibench --scenario NAME [flags...]  run one scenario with its own
//                                        flags (also `poibench NAME
//                                        [flags...]`); --smoke stands for
//                                        the scenario's pinned tiny-city
//                                        argument list, and any further
//                                        flags (e.g. --threads N) follow it
//   poibench --all [--smoke] [flags...]  run every deterministic scenario in
//                                        registration order, each with the
//                                        same flags — the regression gate
//                                        diffs the combined stdout across
//                                        thread counts
//   poibench --kernel-tier               the frequency-kernel tier this
//                                        machine dispatches to (scalar,
//                                        avx2 or neon; POIPRIVACY_KERNEL
//                                        applies), for benchmark provenance
//   poibench --help                      this text
//
// Exit codes: 0 on success, 2 on usage errors or an unknown scenario, and
// otherwise the first failing scenario's own exit code.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "poi/kernel_tiers.h"
#include "scenarios/scenarios.h"

namespace {

using poiprivacy::eval::Scenario;
using poiprivacy::eval::ScenarioRegistry;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: poibench --list\n"
      "       poibench --scenario NAME [--smoke] [flags...]\n"
      "                                      (or: poibench NAME ...)\n"
      "       poibench --all [--smoke] [flags...]\n"
      "       poibench --kernel-tier\n"
      "       poibench --help\n"
      "\n"
      "Pass --help after --scenario NAME for that scenario's flag list.\n",
      out);
}

int list_scenarios() {
  for (const Scenario& scenario : ScenarioRegistry::instance().all()) {
    std::printf("%-26s %s\n", scenario.name.c_str(),
                scenario.description.c_str());
  }
  return 0;
}

/// Runs scenario `name` on `program` + `flags`, where a `--smoke` among
/// the flags stands for the scenario's pinned tiny-city argument list
/// (put first, so the other flags, e.g. --threads N, still apply).
int run_one(const char* program, std::string_view name,
            const std::vector<std::string>& flags) {
  std::vector<std::string> args{program};
  const Scenario* scenario = ScenarioRegistry::instance().find(name);
  if (scenario != nullptr &&
      std::find(flags.begin(), flags.end(), "--smoke") != flags.end()) {
    args.insert(args.end(), scenario->smoke_args.begin(),
                scenario->smoke_args.end());
  }
  for (const std::string& flag : flags) {
    if (flag != "--smoke") args.push_back(flag);
  }
  std::vector<const char*> argv_run;
  argv_run.reserve(args.size());
  for (const std::string& arg : args) argv_run.push_back(arg.c_str());
  return poiprivacy::bench::run_scenario_main(
      name, static_cast<int>(argv_run.size()), argv_run.data());
}

int run_all(const char* program, const std::vector<std::string>& flags) {
  for (const Scenario& scenario : ScenarioRegistry::instance().all()) {
    if (!scenario.deterministic) continue;
    std::cout << "==== " << scenario.name << " ====\n";
    std::cout.flush();
    const int code = run_one(program, scenario.name, flags);
    std::cout.flush();
    if (code != 0) {
      std::cerr << "poibench: scenario " << scenario.name
                << " failed with exit code " << code << "\n";
      return code;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  poiprivacy::bench::register_all_scenarios();
  if (argc < 2) {
    print_usage(stderr);
    return 2;
  }
  const std::string_view mode = argv[1];
  if (mode == "--help" || mode == "-h") {
    print_usage(stdout);
    return 0;
  }
  if (mode == "--list") {
    return list_scenarios();
  }
  if (mode == "--kernel-tier") {
    std::printf("%s\n", std::string(poiprivacy::poi::kernel_tier_name(
                                         poiprivacy::poi::active_kernel_tier()))
                             .c_str());
    return 0;
  }
  const std::vector<std::string> rest(argv + 2, argv + argc);
  if (mode == "--all") {
    return run_all(argv[0], rest);
  }
  if (mode == "--scenario") {
    if (rest.empty()) {
      std::fputs("poibench: --scenario needs a name (see --list)\n", stderr);
      return 2;
    }
    // The scenario gets an argv of its own: program name + its flags.
    return run_one(argv[0], rest.front(), {rest.begin() + 1, rest.end()});
  }
  if (mode.rfind("--", 0) == 0) {
    std::fprintf(stderr, "poibench: unknown mode %s\n\n",
                 std::string(mode).c_str());
    print_usage(stderr);
    return 2;
  }
  // Bare scenario name shorthand.
  return run_one(argv[0], mode, rest);
}
