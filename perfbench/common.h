// Shared plumbing of the benchmark driver: options, clocks, the outcome
// record every workload fills, an order-sensitive digest, and the
// in-memory span log of the traced runs.
//
// The driver measures the library from outside: every span below wraps a
// call into one public function of one layer (service, cloak, poi, dp,
// defense, net, attack, ml). Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke check (perfbench/run.py --smoke).
  bool smoke = false;
  /// Flips one bit of the reference digest before the output checks, so
  /// the smoke check can prove a mismatch is caught.
  bool corrupt_digest = false;
};

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_seconds() noexcept;
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb() noexcept;

/// Pins the calling thread to the (index mod n)-th of the n CPUs the
/// process may run on. The hosts this runs on are shared, and how much a
/// neighbour slows one CPU drifts over seconds; rotating a single-threaded
/// timed loop over every CPU, one round each, and reporting the median
/// round keeps one contended CPU from setting a whole run's figure.
void pin_to_cpu(std::size_t index) noexcept;
/// Lets the calling thread run on every allowed CPU again.
void unpin() noexcept;

double median(std::vector<double> xs);
/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> xs, double q);

/// FNV-1a over everything fed to it, in order.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) noexcept;
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one run reports: counts, metrics and provenance. A metric without
/// a value was not measured and prints as null.
class Outcome {
 public:
  void metric(const std::string& name, std::optional<double> value,
              const std::string& unit);
  /// Records a failed check: `n` operations count as failed and the run
  /// as incorrect; `why` goes to stderr.
  void fail(std::uint64_t n, const std::string& why);
  /// Provenance entry; `json` is an already-encoded JSON value.
  void note(const std::string& key, const std::string& json);
  void note(const std::string& key, double value);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Metric {
    std::string name;
    std::optional<double> value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& notes()
      const noexcept {
    return notes_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

std::string json_string(const std::string& s);
std::string json_number(double x);

/// In-memory span log: one span per call into a layer, written out as
/// per-layer totals when the replay ends. Recording costs two clock reads
/// and one append into reserved storage. Self times (a span minus the
/// layer spans inside it) are computed by the replays from these totals.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve);

  /// Opens a span named `layer` (a string literal).
  std::uint32_t open(const char* layer) noexcept;
  void close(std::uint32_t id) noexcept;

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
  };
  /// Per-layer totals over every closed span.
  Totals totals(const char* layer) const;
  void clear() noexcept { spans_.clear(); }

 private:
  struct Span {
    const char* layer;
    std::int64_t begin;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// RAII span over a scope.
class Scope {
 public:
  Scope(SpanLog& log, const char* layer) noexcept
      : log_(&log), id_(log.open(layer)) {}
  ~Scope() { log_->close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Runs `make` (returning a std::unique_ptr<State>) `reps` times, each on
/// another CPU, destroying the previous state before each timed
/// construction; returns the median construction time in seconds and
/// leaves the last state in `state`.
template <typename State, typename Make>
double timed_setup(std::unique_ptr<State>& state, int reps, Make&& make) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    pin_to_cpu(static_cast<std::size_t>(i));
    const std::int64_t t0 = now_ns();
    state = make();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  unpin();
  return median(std::move(seconds));
}

/// Set-up repetitions per run: setup_s is their median.
inline constexpr int kSetupReps = 3;

}  // namespace perfbench
