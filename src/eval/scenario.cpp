#include "eval/scenario.h"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace poiprivacy::eval {

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (find(scenario.name) != nullptr) {
    // Two scenarios answering to one key is always a merge mistake, and a
    // registry that silently shadowed one of them would corrupt the smoke
    // gate's catalog — abort so the broken build cannot even --list.
    std::cerr << "fatal: duplicate scenario registration: " << scenario.name
              << "\n";
    std::abort();
  }
  if (!scenario.run) {
    throw std::invalid_argument("scenario without a run function: " +
                                scenario.name);
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

int ScenarioRegistry::run_main(std::string_view name, int argc,
                               const char* const* argv) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    std::cerr << "error: unknown scenario: " << name << "\n"
              << "known scenarios:\n";
    for (const Scenario& s : scenarios_) {
      std::cerr << "  " << s.name << "\n";
    }
    return 2;
  }
  try {
    const BenchOptions options(argc, argv, scenario->extra_flags);
    return scenario->run(options);
  } catch (const std::invalid_argument& error) {
    return common::usage_error(argc > 0 ? argv[0] : "poibench", error);
  }
}

}  // namespace poiprivacy::eval
