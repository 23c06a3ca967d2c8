// Observability layer: process-wide timings for the serving, evaluation
// and parallel subsystems, the thread pool's counters, and the Counter
// type components use for their own per-instance counts.
//
// Three metric kinds, owned by a Registry and handed out as stable
// references (find-or-create by dotted name, e.g. "parallel.tasks"):
//
//   * Counter — monotone; one relaxed-atomic word. A component that
//     counts its own events (ReleaseService) holds Counters as plain
//     members and reports them through its stats struct, so each event
//     is counted once, per instance.
//   * Gauge   — a last-write-wins relaxed-atomic level (the pool's queue
//     depth).
//   * Histogram — count/sum/min/max plus *exact* p50/p95/p99 over the
//     first 65536 values recorded, all under one mutex. Later values still
//     count toward count/sum/min/max and are reported as
//     Snapshot::dropped, so a histogram holds at most 512 KiB of samples.
//     Percentiles use the same linear-interpolation rule as
//     common::percentiles (rank q*(n-1), NumPy "linear"). A NaN value
//     counts toward count and sum but never becomes min or max.
//
// `Span` is a scoped wall-clock timer recording into a Histogram on
// destruction.
//
// Determinism contract: instrumentation only observes — it never feeds a
// value back into released vectors, RNG streams, or evaluation stats.
// With one recording thread the kept samples are the first 65536 in
// record order; with several they are the first 65536 to take the lock,
// which depends on scheduling. Either way they are wall-clock timings
// that never feed back into results.
// tests/obs_determinism_test.cpp enforces this by running the service and
// eval pipelines at --threads 1/2/8 with mid-run scrapes and asserting
// bit-identical results.
//
// Layering: this library sits *below* poi_common so that common/parallel
// can be instrumented; it links only poi_json (eval/json.h, which has no
// further dependencies).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace poiprivacy::eval {
class JsonWriter;
}  // namespace poiprivacy::eval

namespace poiprivacy::obs {

/// One histogram's scraped state. All fields are zero (never NaN) for a
/// histogram that recorded nothing.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Values beyond the exact-percentile cap (count/sum/min/max include
  /// them; the percentiles cover the first 65536 recorded only).
  std::uint64_t dropped = 0;

  double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;

  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  /// Records one value: count/sum/min/max, and the value itself while
  /// fewer than 65536 are kept.
  void record(double v) noexcept;

  /// Count/sum/min/max and exact percentiles of what was recorded so far.
  HistogramSnapshot snapshot() const;

 private:
  friend class Registry;
  Histogram() = default;

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> samples_;  ///< the first 65536 values recorded
};

/// Scoped wall-clock timer: records elapsed seconds into the histogram
/// when destroyed (or on an early stop()).
class Span {
 public:
  explicit Span(Histogram& hist) noexcept
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Records now instead of at scope exit; idempotent.
  void stop() noexcept {
    if (hist_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->record(std::chrono::duration<double>(elapsed).count());
    hist_ = nullptr;
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Owns metrics by name. Handles are stable for the registry's lifetime;
/// rendering walks metrics in registration order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Throws std::logic_error if `name` is already
  /// registered as a different kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::size_t size() const;

  /// Human-readable table, one metric per line, registration order.
  std::string table();

  /// Flat JSON object: counters/gauges as numbers, histograms as nested
  /// objects with count/mean/min/max/p50/p95/p99.
  void render_json(eval::JsonWriter& json);
  std::string json();

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
  std::unordered_map<std::string, Entry*> by_name_;
};

/// The process-wide registry every built-in instrumentation point uses.
/// Never destroyed, so exit-time dump handlers can safely render it.
Registry& global_registry();

/// Installs (once) an exit handler that renders the global registry as
/// JSON — to stderr when `path` is empty, else to the file at `path`.
/// Subsequent calls just update the path.
void dump_on_exit(const std::string& path);

}  // namespace poiprivacy::obs
