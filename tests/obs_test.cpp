// The obs metrics layer's own contracts: counters sum across threads,
// histograms survive the empty/single/all-equal edge cases without NaN,
// exact percentiles agree with common::percentiles, the sample cap keeps
// the first values recorded while count/sum/min/max cover every one, and
// the registry hands out stable handles and renders in registration order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "eval/json.h"
#include "obs/metrics.h"

namespace poiprivacy {
namespace {

TEST(Counter, SumsAcrossThreads) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("c");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.add(5);
  EXPECT_EQ(counter.value(), kThreads * kPerThread + 5);
}

// A component owns its counters as plain members, outside any registry.
TEST(Counter, WorksAsAPlainMember) {
  struct Owner {
    obs::Counter hits;
    obs::Counter misses;
  } owner;
  EXPECT_EQ(owner.hits.value(), 0u);
  std::thread other([&owner] { owner.hits.add(3); });
  owner.hits.add(2);
  other.join();
  owner.misses.add();
  EXPECT_EQ(owner.hits.value(), 5u);
  EXPECT_EQ(owner.misses.value(), 1u);
}

TEST(Gauge, SetAddValue) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("g");
  EXPECT_EQ(gauge.value(), 0);
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.set(0);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(Histogram, EmptySnapshotIsAllZeroNoNaN) {
  obs::Registry registry;
  const obs::HistogramSnapshot snap = registry.histogram("h").snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.p50, 0.0);
  EXPECT_EQ(snap.p95, 0.0);
  EXPECT_EQ(snap.p99, 0.0);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_FALSE(std::isnan(snap.mean()));
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  hist.record(2.5);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.5);
  EXPECT_DOUBLE_EQ(snap.min, 2.5);
  EXPECT_DOUBLE_EQ(snap.max, 2.5);
  EXPECT_DOUBLE_EQ(snap.p50, 2.5);
  EXPECT_DOUBLE_EQ(snap.p95, 2.5);
  EXPECT_DOUBLE_EQ(snap.p99, 2.5);
}

TEST(Histogram, AllEqualValues) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  for (int i = 0; i < 100; ++i) hist.record(3.0);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 3.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.p50, 3.0);
  EXPECT_DOUBLE_EQ(snap.p95, 3.0);
  EXPECT_DOUBLE_EQ(snap.p99, 3.0);
}

TEST(Histogram, ZeroAndNegativeValues) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  hist.record(0.0);
  hist.record(-1.0);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, -1.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.p50, -0.5);  // linear interpolation between the two
}

TEST(Histogram, ExactPercentilesMatchCommonPercentiles) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  common::Rng rng(2024);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.exponential(3.0));
  for (const double v : values) hist.record(v);
  const obs::HistogramSnapshot snap = hist.snapshot();
  const common::Percentiles expected = common::percentiles(values);
  EXPECT_DOUBLE_EQ(snap.p50, expected.p50);
  EXPECT_DOUBLE_EQ(snap.p95, expected.p95);
  EXPECT_DOUBLE_EQ(snap.p99, expected.p99);
  EXPECT_DOUBLE_EQ(snap.min, common::min_of(values));
  EXPECT_DOUBLE_EQ(snap.max, common::max_of(values));
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST(Histogram, SnapshotIsCumulativeAcrossScrapes) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  hist.record(1.0);
  EXPECT_EQ(hist.snapshot().count, 1u);
  hist.record(2.0);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.p50, 1.5);
}

TEST(Histogram, SamplesBeyondCapAreDroppedButStillCounted) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  constexpr std::uint64_t kCap = 65536;
  constexpr std::uint64_t kTotal = 70000;
  // The kept samples are all 1.0; only the dropped ones hold the extremes,
  // so sum, min and max must have seen every value.
  double sum = 0.0;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    const double v = i < kCap ? 1.0 : (i % 2 == 0 ? 0.5 : 4.0);
    hist.record(v);
    sum += v;
  }
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kTotal);
  EXPECT_EQ(snap.dropped, kTotal - kCap);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 4.0);
  EXPECT_DOUBLE_EQ(snap.p50, 1.0);
  EXPECT_DOUBLE_EQ(snap.p99, 1.0);
}

/// The first 65536 values of `runs` concatenated in order.
std::vector<double> first_kept(const std::vector<std::vector<double>>& runs) {
  std::vector<double> kept;
  for (const std::vector<double>& run : runs) {
    for (const double v : run) {
      if (kept.size() == 65536) return kept;
      kept.push_back(v);
    }
  }
  return kept;
}

TEST(Histogram, CapKeepsTheFirstRecordedSamples) {
  // Two threads, one after the other: (first, second) sample counts both
  // past the cap, and one under it with the other past it.
  for (const auto& [n_first, n_second] :
       {std::pair<std::size_t, std::size_t>{70000, 70000}, {30000, 70000}}) {
    obs::Registry registry;
    obs::Histogram& hist = registry.histogram("h");
    std::vector<double> first(n_first);
    std::vector<double> second(n_second);
    // Ascending runs, the first thread's all above the second's: trading
    // any kept first-thread sample for a second-thread one shifts every
    // order statistic, so the percentiles pin exactly which were kept.
    for (std::size_t i = 0; i < n_first; ++i) first[i] = 1000.0 + i;
    for (std::size_t i = 0; i < n_second; ++i) second[i] = 0.01 * i;
    std::thread([&] {
      for (const double v : first) hist.record(v);
    }).join();
    std::thread([&] {
      for (const double v : second) hist.record(v);
    }).join();
    const common::Percentiles expected =
        common::percentiles(first_kept({first, second}));
    const obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, n_first + n_second);
    EXPECT_EQ(snap.dropped, n_first + n_second - 65536);
    EXPECT_DOUBLE_EQ(snap.p50, expected.p50);
    EXPECT_DOUBLE_EQ(snap.p95, expected.p95);
    EXPECT_DOUBLE_EQ(snap.p99, expected.p99);
  }

  // Eight concurrent recorders below the cap, scraped all the while by a
  // ninth thread. Integer values make the sum exact in any order.
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  std::vector<double> all;
  for (std::size_t i = 0; i < kThreads * kPerThread; ++i) {
    all.push_back(static_cast<double>((i * 7919) % 10007));
  }
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::HistogramSnapshot snap = hist.snapshot();
      EXPECT_GE(snap.count, last);
      EXPECT_EQ(snap.dropped, 0u);
      last = snap.count;
      EXPECT_NE(registry.json().find("\"h\""), std::string::npos);
    }
  });
  std::vector<std::thread> recorders;
  for (std::size_t t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        hist.record(all[t * kPerThread + i]);
      }
    });
  }
  for (std::thread& recorder : recorders) recorder.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  double sum = 0.0;
  for (const double v : all) sum += v;
  const common::Percentiles expected = common::percentiles(all);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, all.size());
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, common::min_of(all));
  EXPECT_EQ(snap.max, common::max_of(all));
  EXPECT_DOUBLE_EQ(snap.p50, expected.p50);
  EXPECT_DOUBLE_EQ(snap.p95, expected.p95);
  EXPECT_DOUBLE_EQ(snap.p99, expected.p99);
}

TEST(Histogram, RecreatedHistogramStartsUncapped) {
  // A histogram built where a capped one lived (typically the same
  // address here) does not inherit its samples or its count.
  std::optional<obs::Registry> registry;
  registry.emplace();
  obs::Histogram& capped = registry->histogram("h");
  for (int i = 0; i < 70000; ++i) capped.record(1.0);
  EXPECT_EQ(capped.snapshot().dropped, 70000u - 65536u);
  registry.reset();

  registry.emplace();
  obs::Histogram& fresh = registry->histogram("h");
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(2.0 + i);
  for (const double v : values) fresh.record(v);
  const obs::HistogramSnapshot snap = fresh.snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_DOUBLE_EQ(snap.p50, common::percentiles(values).p50);
}

TEST(Span, RecordsElapsedSeconds) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  {
    const obs::Span span(hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
}

TEST(Span, StopIsIdempotent) {
  obs::Registry registry;
  obs::Histogram& hist = registry.histogram("h");
  {
    obs::Span span(hist);
    span.stop();
    span.stop();  // second stop and the destructor must not re-record
  }
  EXPECT_EQ(hist.snapshot().count, 1u);
}

TEST(Registry, FindOrCreateReturnsStableHandles) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  registry.gauge("y");
  registry.histogram("z");
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
  registry.histogram("h");
  EXPECT_THROW(registry.counter("h"), std::logic_error);
}

TEST(Registry, JsonRendersInRegistrationOrder) {
  obs::Registry registry;
  registry.counter("zz.second").add(2);
  registry.counter("aa.first").add(1);
  registry.histogram("hh.third").record(1.0);
  const std::string json = registry.json();
  const auto z = json.find("zz.second");
  const auto a = json.find("aa.first");
  const auto h = json.find("hh.third");
  ASSERT_NE(z, std::string::npos);
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(h, std::string::npos);
  EXPECT_LT(z, a);  // registration order, not lexicographic
  EXPECT_LT(a, h);
  EXPECT_NE(json.find("\"zz.second\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(Registry, TableListsEveryMetric) {
  obs::Registry registry;
  registry.counter("requests").add(3);
  registry.gauge("depth").set(4);
  registry.histogram("lat").record(0.25);
  const std::string table = registry.table();
  EXPECT_NE(table.find("requests"), std::string::npos);
  EXPECT_NE(table.find("depth"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);
}

TEST(Registry, RenderJsonComposesIntoEnclosingDocument) {
  obs::Registry registry;
  registry.counter("c").add(1);
  eval::JsonWriter json;
  json.begin_object();
  json.key("metrics");
  registry.render_json(json);
  json.field("after", std::int64_t{7});
  json.end_object();
  EXPECT_EQ(json.str(), "{\"metrics\":{\"c\":1},\"after\":7}");
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&obs::global_registry(), &obs::global_registry());
}

}  // namespace
}  // namespace poiprivacy
