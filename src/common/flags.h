// Minimal command-line flag parser for the bench and example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown
// flags are an error so typos in sweep scripts fail loudly; `--help` is
// always accepted so every binary can print its known-flag list.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace poiprivacy::common {

class Flags {
 public:
  /// Parses argv. Throws std::invalid_argument on a malformed or (if
  /// `known` is nonempty) unknown flag. `--help` is implicitly known.
  Flags(int argc, const char* const* argv,
        const std::vector<std::string>& known = {});

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get(const std::string& name, std::int64_t fallback) const;
  double get(const std::string& name, double fallback) const;
  bool get(const std::string& name, bool fallback) const;

  /// Integer flag constrained to [min, max]: `fallback` when absent, else
  /// the value, which must be a whole base-10 integer in range. Throws
  /// std::invalid_argument naming the flag otherwise.
  std::int64_t get_in_range(
      const std::string& name, std::int64_t fallback, std::int64_t min,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True when the user passed `--help`.
  bool help_requested() const { return has(kHelpFlag); }

  /// "usage: <program> ..." plus one line per known flag — the discovery
  /// aid behind every binary's `--help`.
  std::string usage(const std::string& program) const;

  /// Reads `--threads N` and installs it as the process-wide evaluation
  /// concurrency (common::set_default_thread_count). Without the flag the
  /// default stays hardware_concurrency; `--threads 1` restores the fully
  /// serial path. Returns the effective thread count. Binaries that accept
  /// the flag must list kThreadsFlag among their known flags.
  std::size_t apply_threads_flag() const;

  /// Reads `--metrics[=path]` and arms an at-exit JSON dump of the obs
  /// metrics registry (obs::dump_on_exit): bare `--metrics` dumps to
  /// stderr, `--metrics=FILE` to FILE. Does nothing without the flag, and
  /// dumps `{}` in a -DPOIPRIVACY_NO_METRICS build. Binaries that accept
  /// the flag must list kMetricsFlag among their known flags.
  void apply_metrics_flag() const;

  static constexpr const char* kThreadsFlag = "threads";
  static constexpr const char* kMetricsFlag = "metrics";
  static constexpr const char* kHelpFlag = "help";

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> known_;
};

}  // namespace poiprivacy::common
