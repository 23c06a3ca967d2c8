#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "eval/json.h"

namespace poiprivacy::obs {

namespace {

/// Exact-percentile sample cap per histogram; see the header.
constexpr std::size_t kMaxExactSamples = 65536;

/// Per-thread sample buffer. Only the owning thread appends; scrapes lock
/// the buffer mutex, so the uncontended fast path stays one lock, one
/// count lookup and one push_back.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<std::pair<Histogram*, double>> samples;
  /// Samples this thread has ever buffered, by histogram id; capped at
  /// kMaxExactSamples.
  std::unordered_map<std::uint64_t, std::size_t> buffered;
};

/// All live buffers, in thread-registration order — the order scrapes
/// merge them in, which makes the merged sample sequence a deterministic
/// function of what each thread recorded.
struct BufferList {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

BufferList& buffer_list() {
  static BufferList* list = new BufferList;  // leaked: usable at exit
  return *list;
}

ThreadBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    BufferList& list = buffer_list();
    const std::lock_guard<std::mutex> lock(list.mu);
    list.buffers.push_back(fresh);
    return fresh;
  }();
  return *buf;
}

/// Relaxed-atomic add for doubles (fetch_add on atomic<double> is C++20
/// but not universally lock-free; the CAS loop is).
void atomic_add(std::atomic<double>& target, double d) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + d,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t next_histogram_id() noexcept {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t counter_thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Linear interpolation at rank q*(n-1) over a sorted sample — the same
/// rule as common::percentiles (documented in common/stats.h).
double interpolate(const std::vector<double>& sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

void Counter::add(std::uint64_t n) noexcept {
  cells_[counter_thread_slot() % kCells].v.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Histogram::bucket_of(double v) noexcept {
  if (!(v > 0.0)) return 0;  // nonpositive and NaN
  const double ratio = v / kBase;
  if (ratio <= 1.0) return 1;
  // Smallest i with kBase * 2^(i-1) >= v, i.e. i = 1 + ceil(log2(ratio)).
  const int e = std::ilogb(ratio);
  const double floor_pow = std::ldexp(1.0, e);
  const std::size_t i =
      2 + static_cast<std::size_t>(e) - (ratio <= floor_pow ? 1 : 0);
  return std::min(i, kBuckets - 1);
}

double Histogram::bucket_upper_bound(std::size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  return kBase * std::ldexp(1.0, static_cast<int>(bucket) - 1);
}

Histogram::Histogram(Registry* owner) noexcept
    : owner_(owner), id_(next_histogram_id()) {}

void Histogram::record(double v) noexcept {
  bucket_counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
  ThreadBuffer& buf = this_thread_buffer();
  const std::lock_guard<std::mutex> lock(buf.mu);
  std::size_t& buffered = buf.buffered[id_];
  if (buffered < kMaxExactSamples) {
    ++buffered;
    buf.samples.emplace_back(this, v);
  } else {
    refused_.fetch_add(1, std::memory_order_relaxed);
  }
}

HistogramSnapshot Histogram::snapshot() { return owner_->snapshot_of(*this); }

Registry::~Registry() {
  // Pull this registry's samples out of the thread buffers so no buffer is
  // left holding a pointer into the entries we are about to free, and
  // drop the buffered counts of its histograms.
  const std::lock_guard<std::mutex> lock(mu_);
  scrape_locked();
  BufferList& list = buffer_list();
  const std::lock_guard<std::mutex> list_lock(list.mu);
  for (const std::shared_ptr<ThreadBuffer>& buf : list.buffers) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const auto& entry : entries_) {
      if (entry->histogram) buf->buffered.erase(entry->histogram->id_);
    }
  }
}

Registry::Entry& Registry::entry_for(const std::string& name) {
  if (const auto it = by_name_.find(name); it != by_name_.end()) {
    return *it->second;
  }
  entries_.push_back(std::make_unique<Entry>());
  Entry& entry = *entries_.back();
  entry.name = name;
  by_name_.emplace(name, &entry);
  return entry;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entry_for(name);
  if (!entry.counter) {
    if (entry.gauge || entry.histogram) {
      throw std::logic_error("obs: '" + name +
                             "' already registered as a different kind");
    }
    entry.counter.reset(new Counter());
  }
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entry_for(name);
  if (!entry.gauge) {
    if (entry.counter || entry.histogram) {
      throw std::logic_error("obs: '" + name +
                             "' already registered as a different kind");
    }
    entry.gauge.reset(new Gauge());
  }
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entry_for(name);
  if (!entry.histogram) {
    if (entry.counter || entry.gauge) {
      throw std::logic_error("obs: '" + name +
                             "' already registered as a different kind");
    }
    entry.histogram.reset(new Histogram(this));
  }
  return *entry.histogram;
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Registry::scrape_locked() {
  BufferList& list = buffer_list();
  const std::lock_guard<std::mutex> list_lock(list.mu);
  for (auto it = list.buffers.begin(); it != list.buffers.end();) {
    ThreadBuffer& buf = **it;
    {
      const std::lock_guard<std::mutex> buf_lock(buf.mu);
      auto keep = buf.samples.begin();
      for (auto& [hist, v] : buf.samples) {
        if (hist->owner_ != this) {
          *keep++ = {hist, v};
          continue;
        }
        if (hist->samples_.size() < kMaxExactSamples) {
          hist->samples_.push_back(v);
        } else {
          ++hist->dropped_;
        }
      }
      buf.samples.erase(keep, buf.samples.end());
    }
    // A use count of 1 means the owning thread exited (only the owner
    // appends), so an empty buffer can be dropped safely.
    if (it->use_count() == 1 && (*it)->samples.empty()) {
      it = list.buffers.erase(it);
    } else {
      ++it;
    }
  }
}

HistogramSnapshot Registry::snapshot_of(Histogram& hist) {
  const std::lock_guard<std::mutex> lock(mu_);
  scrape_locked();
  HistogramSnapshot snap;
  snap.count = hist.count_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.sum = hist.sum_.load(std::memory_order_relaxed);
  snap.min = hist.min_.load(std::memory_order_relaxed);
  snap.max = hist.max_.load(std::memory_order_relaxed);
  snap.dropped = hist.dropped_ + hist.refused_.load(std::memory_order_relaxed);
  std::vector<double> sorted = hist.samples_;
  std::sort(sorted.begin(), sorted.end());
  snap.p50 = interpolate(sorted, 0.50);
  snap.p95 = interpolate(sorted, 0.95);
  snap.p99 = interpolate(sorted, 0.99);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t n =
        hist.bucket_counts_[b].load(std::memory_order_relaxed);
    if (n > 0) snap.buckets.emplace_back(Histogram::bucket_upper_bound(b), n);
  }
  return snap;
}

std::string Registry::table() {
  // Snapshots take mu_ themselves, so collect the entry list first.
  std::vector<Entry*> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& entry : entries_) entries.push_back(entry.get());
  }
  std::string out;
  char buf[256];
  for (Entry* entry : entries) {
    if (entry->counter) {
      std::snprintf(buf, sizeof buf, "%-44s counter    %llu\n",
                    entry->name.c_str(),
                    static_cast<unsigned long long>(entry->counter->value()));
    } else if (entry->gauge) {
      std::snprintf(buf, sizeof buf, "%-44s gauge      %lld\n",
                    entry->name.c_str(),
                    static_cast<long long>(entry->gauge->value()));
    } else {
      const HistogramSnapshot snap = entry->histogram->snapshot();
      std::snprintf(buf, sizeof buf,
                    "%-44s histogram  count=%llu mean=%.3g p50=%.3g "
                    "p95=%.3g p99=%.3g max=%.3g\n",
                    entry->name.c_str(),
                    static_cast<unsigned long long>(snap.count), snap.mean(),
                    snap.p50, snap.p95, snap.p99, snap.max);
    }
    out += buf;
  }
  return out;
}

void Registry::render_json(eval::JsonWriter& json) {
  std::vector<Entry*> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& entry : entries_) entries.push_back(entry.get());
  }
  json.begin_object();
  for (Entry* entry : entries) {
    if (entry->counter) {
      json.field(entry->name, entry->counter->value());
    } else if (entry->gauge) {
      json.field(entry->name,
                 static_cast<std::int64_t>(entry->gauge->value()));
    } else {
      const HistogramSnapshot snap = entry->histogram->snapshot();
      json.key(entry->name);
      json.begin_object();
      json.field("count", snap.count);
      json.field("mean", snap.mean());
      json.field("min", snap.min);
      json.field("max", snap.max);
      json.field("p50", snap.p50);
      json.field("p95", snap.p95);
      json.field("p99", snap.p99);
      if (snap.dropped > 0) json.field("dropped", snap.dropped);
      json.end_object();
    }
  }
  json.end_object();
}

std::string Registry::json() {
  eval::JsonWriter writer;
  render_json(writer);
  return writer.str();
}

Registry& global_registry() {
  static Registry* registry = new Registry;  // leaked: usable at exit
  return *registry;
}

namespace {
std::string* g_dump_path = nullptr;
}  // namespace

void dump_on_exit(const std::string& path) {
  if (g_dump_path != nullptr) {
    *g_dump_path = path;
    return;
  }
  g_dump_path = new std::string(path);
  global_registry();  // construct before registering, for exit ordering
  std::atexit([] {
    const std::string json = global_registry().json();
    if (g_dump_path->empty()) {
      std::cerr << json << "\n";
    } else {
      std::ofstream(*g_dump_path) << json << "\n";
    }
  });
}

}  // namespace poiprivacy::obs
