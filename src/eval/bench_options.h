// Shared option plumbing for the figure-reproduction scenarios: flag
// parsing with uniform defaults and workbench construction. Lives in eval
// so the scenario registry, the `poibench` driver and the tests all share
// one parser.
//
// Every scenario accepts:
//   --seed N        master seed (default 42)
//   --locations N   locations per dataset (default 250; paper uses 1000)
//   --full          paper-scale sample sizes (slower)
//   --threads N     evaluation threads (default hardware_concurrency;
//                   1 restores the serial path; results are identical
//                   for every value)
//   --metrics[=F]   dump the obs metrics registry as JSON at exit —
//                   to stderr, or to file F when given a value (no-op
//                   in a -DPOIPRIVACY_NO_METRICS build)
//   --help          print the known-flag list and exit
//
// An unknown `--flag` prints an error naming the flag plus the usage text
// to stderr and exits with status 2 — sweep-script typos fail loudly
// instead of aborting with an uncaught exception.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.h"
#include "eval/datasets.h"

namespace poiprivacy::eval {

struct BenchOptions {
  std::uint64_t seed = 42;
  std::size_t locations = 250;
  bool full = false;
  std::size_t threads = 1;
  common::Flags flags;

  BenchOptions(int argc, const char* const* argv,
               std::vector<std::string> extra_flags = {});

  WorkbenchConfig workbench_config() const;

  /// Prints the scenario banner plus the seed/locations/threads context
  /// line to stdout.
  void print_context(const std::string& what) const;
};

/// The query ranges r every figure sweeps (Section VI-A).
inline const double kQueryRangesKm[] = {0.5, 1.0, 2.0, 4.0};

}  // namespace poiprivacy::eval
