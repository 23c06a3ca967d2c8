#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>

#include "common/stats.h"

namespace perfbench {

double process_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The CPUs the process was allowed at start-up.
const cpu_set_t& allowed_cpus() noexcept {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof s, &s);
    return s;
  }();
  return set;
}

}  // namespace

void pin_to_cpu(std::size_t index) noexcept {
  const cpu_set_t& allowed = allowed_cpus();
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int want = static_cast<int>(index % static_cast<std::size_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

void unpin() noexcept {
  sched_setaffinity(0, sizeof(cpu_set_t), &allowed_cpus());
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  return poiprivacy::common::quantile(xs, q);
}

void Digest::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Outcome::metric(const std::string& name, std::optional<double> value,
                     const std::string& unit) {
  if (value && !std::isfinite(*value)) value.reset();
  metrics_.push_back({name, value, unit});
}

void Outcome::fail(std::uint64_t n, const std::string& why) {
  correct = false;
  failed += n;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Outcome::note(const std::string& key, const std::string& json) {
  notes_.emplace_back(key, json);
}

void Outcome::note(const std::string& key, double value) {
  notes_.emplace_back(key, json_number(value));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

SpanLog::SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

std::uint32_t SpanLog::open(const char* layer) noexcept {
  spans_.push_back({layer, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::close(std::uint32_t id) noexcept { spans_[id].end = now_ns(); }

SpanLog::Totals SpanLog::totals(const char* layer) const {
  Totals out;
  const std::string_view want(layer);
  for (const Span& span : spans_) {
    if (want != span.layer) continue;
    out.count += 1;
    out.total_ns += static_cast<double>(span.end - span.begin);
  }
  return out;
}

}  // namespace perfbench
