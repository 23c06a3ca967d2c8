// ScenarioRegistry — the figure/ablation benchmarks as first-class data.
//
// Every figure, ablation and timing benchmark is a registered Scenario: a
// name, a description, the extra flags it understands, and a run function
// over eval::BenchOptions. One driver binary (`poibench`) lists and runs
// them (`--list`, `--scenario NAME`, `--all --smoke`) through run_main,
// and the test suite drives the same entry point — so the scenario
// catalog, the CLI surface, and the golden coverage can no longer drift
// apart.
//
// Registration is explicit (bench/scenarios/register_all_scenarios), not
// static-initializer magic: scenarios live in a static library, where
// self-registering translation units would be silently dropped by the
// linker.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/bench_options.h"

namespace poiprivacy::eval {

struct Scenario {
  /// Registry key, the NAME of `poibench --scenario NAME` (e.g.
  /// "fig05_kcloak").
  std::string name;
  /// One-line summary shown by `poibench --list`.
  std::string description;
  /// Flags this scenario reads beyond the common set (BenchOptions adds
  /// seed/locations/full/threads/metrics/help itself).
  std::vector<std::string> extra_flags;
  /// Canonical tiny-city argument list for smoke runs: small enough for
  /// the regression gate to run every scenario at several thread counts,
  /// pinned to a fixed seed so outputs are comparable across builds.
  std::vector<std::string> smoke_args;
  /// True when stdout is a pure function of the flags (figure tables).
  /// False for timing benchmarks, which `--all` therefore skips.
  bool deterministic = true;
  /// The scenario body; returns the process exit code.
  std::function<int(const BenchOptions&)> run;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry.
  static ScenarioRegistry& instance();

  /// Registers a scenario. A duplicate name aborts the process with a
  /// "fatal: duplicate scenario registration: NAME" message on stderr —
  /// two scenarios answering to one key is always a merge mistake, and
  /// failing fast beats shadowing one of them. A scenario without a run
  /// function throws std::invalid_argument.
  void add(Scenario scenario);

  /// Looks up a scenario by name; nullptr when absent.
  const Scenario* find(std::string_view name) const noexcept;

  /// All scenarios in registration order.
  const std::vector<Scenario>& all() const noexcept { return scenarios_; }

  /// Runs one scenario as if it were a standalone binary: parses argv
  /// with the scenario's extra flags (so `--help` lists them and an
  /// unknown flag is rejected naming it) and invokes
  /// run. Unknown scenario names print the known list to stderr and
  /// return 2.
  int run_main(std::string_view name, int argc,
               const char* const* argv) const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace poiprivacy::eval
