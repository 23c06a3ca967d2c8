// poibench — the single driver over the scenario catalog.
//
//   poibench --list                      catalog with one line per scenario
//   poibench --scenario NAME [flags...]  run one scenario (same flags as the
//                                        historical standalone binary; also
//                                        `poibench NAME [flags...]`)
//   poibench --all [--smoke] [flags...]  run every deterministic scenario in
//                                        registration order; --smoke uses
//                                        each scenario's pinned tiny-city
//                                        argument list, and any further
//                                        flags (e.g. --threads N) are
//                                        appended to every run — the
//                                        regression gate diffs the combined
//                                        stdout across thread counts
//   poibench --kernel-tier               the frequency-kernel tier this
//                                        machine dispatches to (scalar,
//                                        avx2 or neon; POIPRIVACY_KERNEL
//                                        applies), for benchmark provenance
//   poibench --help                      this text
//
// Exit codes: 0 on success, 2 on usage errors or an unknown scenario, and
// otherwise the first failing scenario's own exit code.
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
      "       poibench --scenario NAME [flags...]   (or: poibench NAME ...)\n"
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

int run_all(int argc, char** argv, int first_extra_arg) {
  bool smoke = false;
  std::vector<std::string> forwarded;
  for (int i = first_extra_arg; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      forwarded.emplace_back(argv[i]);
    }
  }
  for (const Scenario& scenario : ScenarioRegistry::instance().all()) {
    if (!scenario.deterministic) continue;
    std::cout << "==== " << scenario.name << " ====\n";
    std::cout.flush();
    std::vector<std::string> args{argv[0]};
    if (smoke) {
      args.insert(args.end(), scenario.smoke_args.begin(),
                  scenario.smoke_args.end());
    }
    args.insert(args.end(), forwarded.begin(), forwarded.end());
    std::vector<const char*> argv_run;
    argv_run.reserve(args.size());
    for (const std::string& arg : args) argv_run.push_back(arg.c_str());
    const int code = poiprivacy::bench::run_scenario_main(
        scenario.name, static_cast<int>(argv_run.size()), argv_run.data());
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
  if (mode == "--all") {
    return run_all(argc, argv, 2);
  }
  if (mode == "--scenario") {
    if (argc < 3) {
      std::fputs("poibench: --scenario needs a name (see --list)\n", stderr);
      return 2;
    }
    // Hand the scenario an argv of its own: program name + its flags.
    std::vector<const char*> argv_run{argv[0]};
    for (int i = 3; i < argc; ++i) argv_run.push_back(argv[i]);
    return poiprivacy::bench::run_scenario_main(
        argv[2], static_cast<int>(argv_run.size()), argv_run.data());
  }
  if (mode.rfind("--", 0) == 0) {
    std::fprintf(stderr, "poibench: unknown mode %s\n\n",
                 std::string(mode).c_str());
    print_usage(stderr);
    return 2;
  }
  // Bare scenario name shorthand.
  std::vector<const char*> argv_run{argv[0]};
  for (int i = 2; i < argc; ++i) argv_run.push_back(argv[i]);
  return poiprivacy::bench::run_scenario_main(
      argv[1], static_cast<int>(argv_run.size()), argv_run.data());
}
