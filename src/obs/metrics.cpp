#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "eval/json.h"

namespace poiprivacy::obs {

namespace {

/// Exact-percentile sample cap per histogram; see the header.
constexpr std::size_t kMaxExactSamples = 65536;

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

void Histogram::record(double v) noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  if (samples_.size() < kMaxExactSamples) samples_.push_back(v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  std::vector<double> sorted;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap.count = count_;
    if (snap.count == 0) return snap;
    snap.sum = sum_;
    snap.min = min_;
    snap.max = max_;
    sorted = samples_;
  }
  snap.dropped = snap.count - sorted.size();
  std::sort(sorted.begin(), sorted.end());
  snap.p50 = interpolate(sorted, 0.50);
  snap.p95 = interpolate(sorted, 0.95);
  snap.p99 = interpolate(sorted, 0.99);
  return snap;
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
    entry.histogram.reset(new Histogram());
  }
  return *entry.histogram;
}

std::size_t Registry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string Registry::table() {
  // Snapshots sort outside mu_, so collect the entry list first.
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
