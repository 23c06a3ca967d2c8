// Observability layer: process-wide timings for the serving, evaluation
// and parallel subsystems, the thread pool's counters, and the Counter
// type components use for their own per-instance counts.
//
// Three metric kinds, owned by a Registry and handed out as stable
// references (find-or-create by dotted name, e.g. "parallel.tasks"):
//
//   * Counter — monotone; increments go to one of 16 cache-line-padded
//     relaxed-atomic cells selected by a per-thread slot, so hot-path
//     `add()` never contends; `value()` sums the cells. Components that
//     count their own events (ReleaseService, the anchor cache) hold
//     Counters as plain members and report them through their stats
//     structs, so each event is counted once, per instance.
//   * Gauge   — a last-write-wins relaxed-atomic level (the pool's queue
//     depth).
//   * Histogram — log-bucketed (factor-2 buckets from 1 ns) distribution
//     with count/sum/min/max, plus *exact* p50/p95/p99: every recorded
//     value is also appended to a per-thread sample buffer, and at scrape
//     time the Registry merges the buffers in buffer-registration order
//     (append order within a buffer), so the merged sample sequence is a
//     deterministic function of what was recorded. Percentiles use the
//     same linear-interpolation rule as common::percentiles (rank
//     q*(n-1), NumPy "linear"). Exact samples are capped at 65536 per
//     histogram; beyond the cap values still land in the buckets and the
//     overflow is reported as Snapshot::dropped. Each thread also buffers
//     at most 65536 samples per histogram: the merge keeps every thread's
//     append order, so a thread's 65537th sample could never be among the
//     first 65536 merged. Later ones are refused at record time (counted
//     in dropped), which bounds buffer memory between scrapes without
//     changing any kept sample.
//
// `Span` is a scoped wall-clock timer recording into a Histogram on
// destruction.
//
// Determinism contract: instrumentation only observes — it never feeds a
// value back into released vectors, RNG streams, or evaluation stats.
// tests/obs_determinism_test.cpp enforces this by running the service and
// eval pipelines at --threads 1/2/8 with mid-run scrapes and asserting
// bit-identical results.
//
// Layering: this library sits *below* poi_common so that common/parallel
// can be instrumented; it links only poi_json (eval/json.h, which has no
// further dependencies).
#pragma once

#include <array>
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
  /// Samples beyond the exact-percentile cap (bucket counts still include
  /// them; the percentiles cover the first 65536 merged samples only).
  std::uint64_t dropped = 0;
  /// (inclusive upper bound, count) per nonzero log bucket, ascending.
  std::vector<std::pair<double, std::uint64_t>> buckets;

  double mean() const noexcept {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

class Registry;

class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;

 private:
  static constexpr std::size_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
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
  /// Records one value: log bucket + count/sum/min/max (relaxed atomics)
  /// and the calling thread's sample buffer (for exact percentiles).
  void record(double v) noexcept;

  /// Scrapes the owning registry's thread buffers and summarizes.
  HistogramSnapshot snapshot();

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(Registry* owner) noexcept;

  // Bucket 0 holds v <= 0; bucket i >= 1 holds (kBase*2^(i-2), kBase*2^(i-1)].
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kBase = 1e-9;  ///< first bucket upper bound: 1 ns
  static std::size_t bucket_of(double v) noexcept;
  static double bucket_upper_bound(std::size_t bucket) noexcept;

  Registry* owner_;
  /// Process-unique; keys the per-thread buffered counts, so a histogram
  /// allocated where a destroyed one lived starts uncapped.
  std::uint64_t id_;
  std::array<std::atomic<std::uint64_t>, kBuckets> bucket_counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  // Merged exact samples; guarded by the registry's mutex (scrape-time
  // only — the hot path touches per-thread buffers instead).
  std::vector<double> samples_;
  std::uint64_t dropped_ = 0;
  /// Samples refused at record time by the per-thread cap.
  std::atomic<std::uint64_t> refused_{0};
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
  ~Registry();
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
  friend class Histogram;

  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Drains every live thread buffer (in buffer-registration order) into
  /// the owned histograms' sample vectors. Called under mu_.
  void scrape_locked();
  HistogramSnapshot snapshot_of(Histogram& hist);
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
