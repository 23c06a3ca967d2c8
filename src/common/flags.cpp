#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <stdexcept>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace poiprivacy::common {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg.compare(0, 2, "--") == 0;
}

/// True when the whole of `text` parses as a T (no leading or trailing
/// junk, no overflow).
template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return error == std::errc{} && end == text.data() + text.size();
}

std::invalid_argument bad_value(const std::string& name,
                                const std::string& expected,
                                const std::string& text) {
  return std::invalid_argument("--" + name + " must be " + expected +
                               ", got '" + text + "'");
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known)
    : known_(known) {
  if (!known_.empty() &&
      std::find(known_.begin(), known_.end(), kHelpFlag) == known_.end()) {
    known_.push_back(kHelpFlag);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
      value = argv[++i];
      has_value = true;
    }
    if (!known_.empty() &&
        std::find(known_.begin(), known_.end(), name) == known_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    values_[name] = has_value ? value : "true";
  }
}

std::string Flags::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [--flag value | --flag]...\n";
  if (known_.empty()) {
    out += "  (this binary accepts arbitrary flags)\n";
    return out;
  }
  out += "known flags:\n";
  for (const std::string& name : known_) {
    out += "  --" + name + "\n";
  }
  return out;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  if (!parse_whole(it->second, value)) {
    throw bad_value(name, "an integer", it->second);
  }
  return value;
}

std::int64_t Flags::get_in_range(const std::string& name,
                                 std::int64_t fallback, std::int64_t min,
                                 std::int64_t max) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  if (parse_whole(it->second, value) && value >= min && value <= max) {
    return value;
  }
  const std::string range =
      max == std::numeric_limits<std::int64_t>::max()
          ? ">= " + std::to_string(min)
          : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  throw bad_value(name, "an integer " + range, it->second);
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!parse_whole(it->second, value)) {
    throw bad_value(name, "a number", it->second);
  }
  return value;
}

std::size_t Flags::apply_threads_flag() const {
  const std::int64_t n = get(kThreadsFlag, std::int64_t{0});
  if (n < 0) throw std::invalid_argument("--threads must be >= 1");
  set_default_thread_count(static_cast<std::size_t>(n));
  return default_thread_count();
}

void Flags::apply_metrics_flag() const {
  if (!has(kMetricsFlag)) return;
  // A bare `--metrics` is stored as the string "true" → dump to stderr.
  const std::string path = get(kMetricsFlag, std::string{});
  obs::dump_on_exit(path == "true" ? std::string{} : path);
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

int usage_error(const char* program, const std::exception& error) {
  std::cerr << program << ": error: " << error.what() << "\n";
  return 2;
}

}  // namespace poiprivacy::common
