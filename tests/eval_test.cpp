#include <sstream>

#include <gtest/gtest.h>

#include "eval/datasets.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace poiprivacy::eval {
namespace {

WorkbenchConfig small_config() {
  WorkbenchConfig config;
  config.locations_per_dataset = 40;
  config.num_taxis = 10;
  config.points_per_taxi = 20;
  config.num_checkin_users = 10;
  config.checkins_per_user = 10;
  return config;
}

TEST(Workbench, BuildsAllFourDatasets) {
  const Workbench bench(small_config());
  for (const DatasetKind kind : kAllDatasets) {
    EXPECT_EQ(bench.locations(kind).size(), 40u) << dataset_name(kind);
    const poi::City& city = bench.city_of(kind);
    for (const geo::Point l : bench.locations(kind)) {
      EXPECT_TRUE(city.db.bounds().contains(l));
    }
  }
  EXPECT_EQ(bench.beijing().db.city_name(), "beijing");
  EXPECT_EQ(bench.nyc().db.city_name(), "nyc");
  EXPECT_EQ(&bench.city_of(DatasetKind::kBeijingTdrive), &bench.beijing());
  EXPECT_EQ(&bench.city_of(DatasetKind::kNycRandom), &bench.nyc());
}

TEST(Workbench, DeterministicForSeed) {
  const Workbench a(small_config());
  const Workbench b(small_config());
  for (const DatasetKind kind : kAllDatasets) {
    EXPECT_EQ(a.locations(kind), b.locations(kind));
  }
}

TEST(Workbench, DatasetNamesAreDistinct) {
  std::set<std::string> names;
  for (const DatasetKind kind : kAllDatasets) {
    names.insert(dataset_name(kind));
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST(Runner, IdentityReleaseMatchesDbFreq) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const ReleaseFn release = identity_release(db);
  const geo::Point l{10.0, 10.0};
  EXPECT_EQ(release(l, 1.0), db.freq(l, 1.0));
}

TEST(Runner, AttackStatsInvariants) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const AttackStats stats = evaluate_attack(
      db, bench.locations(DatasetKind::kBeijingRandom), 2.0,
      identity_release(db));
  EXPECT_EQ(stats.attempts, 40u);
  EXPECT_LE(stats.correct, stats.unique);
  EXPECT_LE(stats.unique, stats.attempts);
  EXPECT_GE(stats.success_rate(), 0.0);
  EXPECT_LE(stats.success_rate(), 1.0);
  // On honest releases a unique candidate is always correct.
  EXPECT_EQ(stats.correct, stats.unique);
  // Section II-D accounting: the counters form a monotone chain.
  EXPECT_TRUE(stats.counters_consistent());
  EXPECT_EQ(stats.empty_releases, 0u);  // identity releases are never empty
  EXPECT_DOUBLE_EQ(stats.unique_rate(),
                   static_cast<double>(stats.unique) / 40.0);
}

TEST(Runner, EmptyReleasesAreCountedAndNeverUnique) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  // A release that suppresses everything: the attack cannot start, so every
  // attempt must land in empty_releases and none in unique/correct.
  const ReleaseFn suppress_all = [&db](geo::Point, double) {
    return poi::FrequencyVector(db.num_types(), 0);
  };
  const AttackStats stats = evaluate_attack(
      db, bench.locations(DatasetKind::kBeijingRandom), 2.0, suppress_all);
  EXPECT_EQ(stats.attempts, 40u);
  EXPECT_EQ(stats.empty_releases, 40u);
  EXPECT_EQ(stats.unique, 0u);
  EXPECT_EQ(stats.correct, 0u);
  EXPECT_TRUE(stats.counters_consistent());
  EXPECT_DOUBLE_EQ(stats.success_rate(), 0.0);
}

TEST(Runner, AttackStatsExposeAnchorCacheTraffic) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const auto locations = bench.locations(DatasetKind::kBeijingRandom);
  const AttackStats first =
      evaluate_attack(db, locations, 2.0, identity_release(db));
  // The attack performs anchor lookups, and on a fresh workbench at least
  // some of them are first-time misses.
  EXPECT_GT(first.cache_hits + first.cache_misses, 0u);
  EXPECT_GT(first.cache_misses, 0u);
  // The counts are the database's own: on a fresh workbench the first
  // pass is all the anchor-cache traffic there is.
  const poi::AnchorCacheStats cache = db.anchor_cache_stats();
  EXPECT_EQ(first.cache_hits + first.cache_misses, cache.hits + cache.misses);
  // Re-running the identical evaluation touches only warm entries: the
  // second pass is all hits, and its total traffic matches the first.
  const AttackStats second =
      evaluate_attack(db, locations, 2.0, identity_release(db));
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.cache_hits, first.cache_hits + first.cache_misses);
}

TEST(Runner, EmptyLocationsGiveZeroStats) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const AttackStats stats =
      evaluate_attack(db, {}, 2.0, identity_release(db));
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 0.0);
}

TEST(Runner, FineGrainedAreasBoundedByBaselineDisk) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  attack::FineGrainedConfig config;
  config.area_resolution = 128;
  const FineGrainedStats stats = evaluate_fine_grained(
      db, bench.locations(DatasetKind::kBeijingRandom), 2.0, config);
  EXPECT_EQ(stats.attempts, 40u);
  EXPECT_EQ(stats.areas_km2.size(), stats.successes);
  for (const double area : stats.areas_km2) {
    EXPECT_LE(area, M_PI * 4.0 * 1.05);
    EXPECT_GE(area, 0.0);
  }
  EXPECT_LE(stats.contains_truth, stats.successes);
}

TEST(Runner, UtilityOfIdentityIsOne) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const UtilityStats stats = evaluate_utility(
      db, bench.locations(DatasetKind::kBeijingRandom), 2.0,
      identity_release(db));
  EXPECT_DOUBLE_EQ(stats.mean_jaccard, 1.0);
  EXPECT_EQ(stats.samples, 40u);
}

TEST(Runner, UtilityOfEmptyReleaseIsLow) {
  const Workbench bench(small_config());
  const poi::PoiDatabase& db = bench.beijing().db;
  const ReleaseFn empty_release = [&db](geo::Point, double) {
    return poi::FrequencyVector(db.num_types(), 0);
  };
  const UtilityStats stats = evaluate_utility(
      db, bench.locations(DatasetKind::kBeijingRandom), 2.0, empty_release);
  EXPECT_LT(stats.mean_jaccard, 0.05);
}

TEST(Table, AlignsColumnsAndPadsRows) {
  Table table({"name", "value"});
  table.add_row({"a", "1.000"});
  table.add_row({"long-name"});  // short row gets padded
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, SectionAndNoteFormat) {
  std::ostringstream out;
  print_section(out, "hello");
  print_note(out, "world");
  EXPECT_NE(out.str().find("== hello =="), std::string::npos);
  EXPECT_NE(out.str().find("world"), std::string::npos);
}

}  // namespace
}  // namespace poiprivacy::eval
