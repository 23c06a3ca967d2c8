#include <algorithm>
#include <latch>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "poi/city_model.h"
#include "poi/csv.h"
#include "poi/database.h"
#include "poi/frequency.h"

namespace poiprivacy::poi {
namespace {

City make_test_city(std::uint64_t seed = 7) {
  return generate_city(test_preset(), seed);
}

TEST(TypeRegistry, InternIsIdempotent) {
  PoiTypeRegistry reg;
  const TypeId a = reg.intern("cafe");
  const TypeId b = reg.intern("school");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("cafe"), a);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(a), "cafe");
}

TEST(Frequency, DiffAndL1) {
  const FrequencyVector a{3, 0, 2};
  const FrequencyVector b{1, 1, 2};
  EXPECT_EQ(diff(a, b), (FrequencyVector{2, -1, 0}));
  EXPECT_EQ(l1_distance(a, b), 3);
  EXPECT_EQ(total(a), 5);
}

TEST(Frequency, Dominates) {
  EXPECT_TRUE(dominates(FrequencyVector{3, 1, 2}, FrequencyVector{3, 0, 2}));
  EXPECT_TRUE(dominates(FrequencyVector{3, 1, 2}, FrequencyVector{3, 1, 2}));
  EXPECT_FALSE(dominates(FrequencyVector{3, 0, 2}, FrequencyVector{3, 1, 2}));
}

TEST(Frequency, TopKTypesOrderedAndPositiveOnly) {
  const FrequencyVector f{0, 5, 2, 5, 0, 1};
  const auto top = top_k_types(f, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // freq 5, lower id wins the tie
  EXPECT_EQ(top[1], 3u);  // freq 5
  EXPECT_EQ(top[2], 2u);  // freq 2
}

TEST(Frequency, TopKFewerThanKWhenSparse) {
  const FrequencyVector f{0, 1, 0};
  EXPECT_EQ(top_k_types(f, 5).size(), 1u);
}

TEST(Frequency, JaccardEdgeCases) {
  const std::vector<TypeId> empty;
  const std::vector<TypeId> a{1, 2, 3};
  const std::vector<TypeId> b{2, 3, 4};
  EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(a, b), 0.5);
}

TEST(Frequency, TopKJaccardIdenticalVectorsIsOne) {
  const FrequencyVector f{4, 2, 0, 7, 1};
  EXPECT_DOUBLE_EQ(top_k_jaccard(f, f, 10), 1.0);
}

TEST(Database, CityFreqMatchesPoiMultiset) {
  const City city = make_test_city();
  const FrequencyVector& cf = city.db.city_freq();
  FrequencyVector expected(city.db.num_types(), 0);
  for (const Poi& p : city.db.pois()) ++expected[p.type];
  EXPECT_EQ(cf, expected);
  EXPECT_EQ(total(cf), static_cast<std::int64_t>(city.db.pois().size()));
}

TEST(Database, InfrequencyRankIsPermutationConsistentWithCounts) {
  const City city = make_test_city();
  const auto& rank = city.db.infrequency_rank();
  const auto& cf = city.db.city_freq();
  std::vector<int> sorted = rank;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int>(i) + 1);
  }
  for (TypeId a = 0; a < cf.size(); ++a) {
    for (TypeId b = 0; b < cf.size(); ++b) {
      if (cf[a] < cf[b]) {
        EXPECT_LT(rank[a], rank[b]);
      }
    }
  }
}

TEST(Database, QueryMatchesBruteForce) {
  const City city = make_test_city();
  common::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.2, 2.0);
    const auto got = city.db.query(l, r);
    std::set<PoiId> got_set(got.begin(), got.end());
    std::set<PoiId> expected;
    for (const Poi& p : city.db.pois()) {
      if (geo::distance(p.pos, l) <= r) expected.insert(p.id);
    }
    EXPECT_EQ(got_set, expected);
  }
}

TEST(Database, AnchorFreqMatchesUncachedFreqOver1kRandomAnchors) {
  const City city = make_test_city();
  common::Rng rng(21);
  const auto n = static_cast<std::int64_t>(city.db.pois().size());
  for (int trial = 0; trial < 1000; ++trial) {
    const auto id = static_cast<PoiId>(rng.uniform_int(0, n - 1));
    const double r = rng.uniform(0.2, 2.0);
    // The cache key is the exact (id, 2r) pair the attacks look up.
    EXPECT_EQ(city.db.anchor_freq(id, 2.0 * r),
              city.db.freq(city.db.poi(id).pos, 2.0 * r))
        << "anchor " << id << " radius " << 2.0 * r;
  }
}

TEST(Database, AnchorCacheCountsHitsAndDistinctMisses) {
  const City city = make_test_city();
  EXPECT_EQ(city.db.anchor_cache_stats().lookups(), 0u);
  const FrequencyVector& first = city.db.anchor_freq(3, 1.6);
  const FrequencyVector& again = city.db.anchor_freq(3, 1.6);
  EXPECT_EQ(&first, &again);  // entries are stable; the cache never evicts
  (void)city.db.anchor_freq(3, 0.8);  // different radius -> new entry
  (void)city.db.anchor_freq(4, 1.6);  // different anchor -> new entry
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.lookups(), 4u);
}

TEST(Database, AnchorCacheConcurrentReadsAccountForEveryLookup) {
  const City city = make_test_city();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 400;
  constexpr std::size_t kDistinctKeys = 37;  // shared across threads
  std::vector<std::thread> threads;
  std::vector<std::set<std::size_t>> touched(kThreads);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&city, &touched, t] {
      common::Rng rng(100 + t);
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const auto key = static_cast<std::size_t>(
            rng.uniform_int(0, kDistinctKeys - 1));
        touched[t].insert(key);
        const auto id = static_cast<PoiId>(key % city.db.pois().size());
        const double radius = 0.4 + 0.1 * static_cast<double>(key);
        const FrequencyVector& f = city.db.anchor_freq(id, radius);
        ASSERT_EQ(f.size(), city.db.num_types());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::set<std::size_t> distinct;
  for (const auto& keys : touched) distinct.insert(keys.begin(), keys.end());
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  // Deterministic accounting even under racing first lookups: every lookup
  // is exactly one hit or one miss, and misses == distinct keys touched no
  // matter how the threads interleave.
  EXPECT_EQ(stats.lookups(), kThreads * kLookupsPerThread);
  EXPECT_EQ(stats.misses, distinct.size());
}

TEST(Database, AnchorCacheRejectsOutOfRangeIds) {
  const City city = make_test_city();
  const auto n = static_cast<PoiId>(city.db.pois().size());
  EXPECT_THROW((void)city.db.anchor_aggregate(n, 1.6), std::out_of_range);
  EXPECT_THROW((void)city.db.anchor_freq(n + 1000, 1.6), std::out_of_range);
  // A radius whose table already exists must not let the id through.
  (void)city.db.anchor_freq(0, 1.6);
  EXPECT_THROW((void)city.db.anchor_freq(n, 1.6), std::out_of_range);
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.lookups(), 1u);  // rejected ids are not lookups
}

TEST(Database, AnchorCacheRacingColdLookupsPublishOneEntryPerKey) {
  // Even threads look up anchor aggregates and odd threads type blocks, at
  // three radii no earlier call has touched, so the first touch of each
  // radius's table races across both key kinds. Beijing's blocks are slow
  // enough to build that racing threads compute the same key and one of
  // them stores second.
  const City city = generate_city(beijing_preset(), 7);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kKeys = 24;  // per kind: 8 ids or types x 3 radii
  ASSERT_GE(city.db.num_types(), kKeys / 3);
  const auto key_id = [&](std::size_t k) {
    return static_cast<PoiId>((k * 37) % city.db.pois().size());
  };
  // The most common types give the slowest blocks.
  std::vector<TypeId> by_count(city.db.num_types());
  std::iota(by_count.begin(), by_count.end(), TypeId{0});
  std::sort(by_count.begin(), by_count.end(), [&](TypeId a, TypeId b) {
    return city.db.city_freq()[a] > city.db.city_freq()[b];
  });
  const auto key_type = [&](std::size_t k) { return by_count[k / 3]; };
  const auto key_radius = [](std::size_t k) {
    return 2.0 + 0.5 * static_cast<double>(k % 3);
  };
  const auto lookup = [&](std::size_t t, std::size_t k) -> const void* {
    if (t % 2 == 0) return &city.db.anchor_aggregate(key_id(k), key_radius(k));
    return &city.db.type_block(key_type(k), key_radius(k));
  };
  // seen[t][k]: the address thread t got for key k of its kind.
  std::vector<std::vector<const void*>> seen(
      kThreads, std::vector<const void*>(kKeys));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // every thread's first lookup is a race
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kKeys; ++i) {
          // Two pairs of threads per kind walk the keys in lockstep from
          // two offsets, so most first touches collide.
          const std::size_t k = (i + (t / 2 % 2) * (kKeys / 2)) % kKeys;
          const void* got = lookup(t, k);
          if (round == 0) seen[t][k] = got;
          ASSERT_EQ(got, seen[t][k]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t t = 2; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[t % 2][k]) << "key " << k << " thread " << t;
    }
    const auto* aggregate = static_cast<const AnchorAggregate*>(seen[0][k]);
    EXPECT_EQ(aggregate->freq,
              city.db.freq(city.db.poi(key_id(k)).pos, key_radius(k)));
    const auto* block = static_cast<const TypeBlock*>(seen[1][k]);
    const std::vector<PoiId>& ids = city.db.pois_of_type(key_type(k));
    ASSERT_EQ(block->count, ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const FrequencyVector f =
          city.db.freq(city.db.poi(ids[j]).pos, key_radius(k));
      for (TypeId type = 0; type < city.db.num_types(); ++type) {
        ASSERT_EQ(block->row(type)[j], f[type]) << "key " << k;
      }
    }
  }
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  EXPECT_EQ(stats.misses, 2 * kKeys);  // kKeys anchor keys + kKeys blocks
  EXPECT_EQ(stats.lookups(), kThreads * kRounds * kKeys);
}

TEST(Database, TypeBlockRacingColdLookupsPublishOneBlockPerKey) {
  // Beijing's most common types at wide radii give blocks slow enough to
  // build that threads lagging behind a leader catch up with it mid-build
  // and store second; a 4-CPU host saw 3-9 such losers in each of 20 runs.
  const City city = generate_city(beijing_preset(), 7);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kKeys = 24;  // distinct types over 3 radii, all cold
  const std::size_t num_types = city.db.num_types();
  std::vector<TypeId> by_count(num_types);
  std::iota(by_count.begin(), by_count.end(), TypeId{0});
  std::sort(by_count.begin(), by_count.end(), [&](TypeId a, TypeId b) {
    return city.db.city_freq()[a] > city.db.city_freq()[b];
  });
  const auto key_type = [&](std::size_t k) { return by_count[k / 3]; };
  const auto key_radius = [](std::size_t k) {
    return 2.0 + 0.5 * static_cast<double>(k % 3);
  };
  // seen[t][k]: the address thread t got for key k.
  std::vector<std::vector<const TypeBlock*>> seen(
      kThreads, std::vector<const TypeBlock*>(kKeys));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();  // every thread's first lookup is a race
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kKeys; ++i) {
          // Two groups of four threads walk the keys in lockstep from
          // two offsets, so most first touches collide.
          const std::size_t k = (i + (t % 2) * (kKeys / 2)) % kKeys;
          const TypeBlock* got =
              &city.db.type_block(key_type(k), key_radius(k));
          if (round == 0) seen[t][k] = got;
          ASSERT_EQ(got, seen[t][k]);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < kKeys; ++k) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[0][k]) << "key " << k << " thread " << t;
    }
    const std::vector<PoiId>& ids = city.db.pois_of_type(key_type(k));
    ASSERT_EQ(seen[0][k]->count, ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const FrequencyVector f =
          city.db.freq(city.db.poi(ids[j]).pos, key_radius(k));
      for (TypeId type = 0; type < num_types; ++type) {
        ASSERT_EQ(seen[0][k]->row(type)[j], f[type]) << "key " << k;
      }
    }
  }
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.lookups(), kThreads * kRounds * kKeys);
}

TEST(Database, TypeBlockRejectsTypeOutOfRange) {
  const City city = make_test_city();
  const auto m = static_cast<TypeId>(city.db.num_types());
  EXPECT_THROW((void)city.db.type_block(m, 1.6), std::out_of_range);
  (void)city.db.type_block(0, 1.6);
  EXPECT_THROW((void)city.db.type_block(m + 1000, 1.6), std::out_of_range);
  const AnchorCacheStats stats = city.db.anchor_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.lookups(), 1u);  // rejected types are not lookups
}

TEST(Database, FreqEqualsQueryHistogram) {
  const City city = make_test_city();
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.2, 2.0);
    const FrequencyVector f = city.db.freq(l, r);
    FrequencyVector expected(city.db.num_types(), 0);
    for (const PoiId id : city.db.query(l, r)) {
      ++expected[city.db.poi(id).type];
    }
    EXPECT_EQ(f, expected);
  }
}

TEST(Database, FreqMonotoneInRadius) {
  const City city = make_test_city();
  common::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const FrequencyVector small = city.db.freq(l, 0.5);
    const FrequencyVector large = city.db.freq(l, 1.5);
    EXPECT_TRUE(dominates(large, small));
  }
}

// The covering lemma at the heart of the attack: for any POI p within r
// of l, F(p, 2r) dominates F(l, r).
TEST(Database, CoveringLemmaHoldsEverywhere) {
  const City city = make_test_city();
  common::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const geo::Point l{rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)};
    const double r = rng.uniform(0.3, 1.5);
    const FrequencyVector f = city.db.freq(l, r);
    for (const PoiId id : city.db.query(l, r)) {
      const FrequencyVector around = city.db.freq(city.db.poi(id).pos, 2.0 * r);
      EXPECT_TRUE(dominates(around, f))
          << "covering violated at trial " << trial;
    }
  }
}

TEST(Database, PoisOfTypePartitionTheDatabase) {
  const City city = make_test_city();
  std::size_t total_pois = 0;
  for (TypeId t = 0; t < city.db.num_types(); ++t) {
    for (const PoiId id : city.db.pois_of_type(t)) {
      EXPECT_EQ(city.db.poi(id).type, t);
    }
    total_pois += city.db.pois_of_type(t).size();
  }
  EXPECT_EQ(total_pois, city.db.pois().size());
}

TEST(Database, TypesWithCityFreqAtMostThreshold) {
  const City city = make_test_city();
  const auto rare = city.db.types_with_city_freq_at_most(10);
  for (const TypeId t : rare) {
    EXPECT_LE(city.db.city_freq()[t], 10);
    EXPECT_GT(city.db.city_freq()[t], 0);
  }
  // Complement check.
  std::set<TypeId> rare_set(rare.begin(), rare.end());
  for (TypeId t = 0; t < city.db.num_types(); ++t) {
    if (!rare_set.count(t)) {
      EXPECT_GT(city.db.city_freq()[t], 10);
    }
  }
}

TEST(CalibratedCounts, ExactTotalsAndRareTargets) {
  const auto counts = calibrated_type_counts(177, 10249, 90);
  EXPECT_EQ(counts.size(), 177u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            10249);
  std::size_t rare = 0;
  for (const auto c : counts) {
    EXPECT_GE(c, 1);
    if (c <= 10) ++rare;
  }
  EXPECT_EQ(rare, 90u);
}

TEST(CalibratedCounts, NycPresetCalibration) {
  const auto counts = calibrated_type_counts(272, 30056, 138, 10, 0.6);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            30056);
  std::size_t rare = 0;
  for (const auto c : counts) {
    if (c <= 10) ++rare;
  }
  EXPECT_EQ(rare, 138u);
}

TEST(CalibratedCounts, TailHasSingletonsAtExponentOne) {
  const auto counts = calibrated_type_counts(177, 10249, 90, 10, 1.0);
  const auto singletons =
      std::count(counts.begin(), counts.end(), std::int32_t{1});
  EXPECT_GT(singletons, 20);
}

struct PresetCase {
  CityPreset preset;
  std::size_t expected_rare;
  // Print only the preset name: gtest's default byte dump of CityPreset
  // includes its std::string's heap pointer, which would put a different
  // address into the discovered test name on every build.
  friend void PrintTo(const PresetCase& c, std::ostream* os) {
    *os << c.preset.name;
  }
};

class CityPresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(CityPresetTest, MatchesPaperScale) {
  const auto& [preset, expected_rare] = GetParam();
  const City city = generate_city(preset, 42);
  EXPECT_EQ(city.db.pois().size(), preset.num_pois);
  EXPECT_EQ(city.db.num_types(), preset.num_types);
  EXPECT_EQ(city.db.types_with_city_freq_at_most(10).size(), expected_rare);
  for (const Poi& p : city.db.pois()) {
    EXPECT_TRUE(city.db.bounds().contains(p.pos));
    EXPECT_EQ(p.id, &p - city.db.pois().data());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, CityPresetTest,
    ::testing::Values(PresetCase{beijing_preset(), 90},
                      PresetCase{nyc_preset(), 138},
                      PresetCase{test_preset(), 18}));

TEST(CityModel, DeterministicForSeed) {
  const City a = make_test_city(99);
  const City b = make_test_city(99);
  ASSERT_EQ(a.db.pois().size(), b.db.pois().size());
  for (std::size_t i = 0; i < a.db.pois().size(); ++i) {
    EXPECT_EQ(a.db.pois()[i].type, b.db.pois()[i].type);
    EXPECT_EQ(a.db.pois()[i].pos, b.db.pois()[i].pos);
  }
}

TEST(CityModel, DifferentSeedsDiffer) {
  const City a = make_test_city(1);
  const City b = make_test_city(2);
  bool any_different = false;
  for (std::size_t i = 0; i < a.db.pois().size(); ++i) {
    if (!(a.db.pois()[i].pos == b.db.pois()[i].pos)) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Csv, RoundTripsDatabase) {
  const City city = make_test_city();
  std::stringstream buffer;
  save_csv(city.db, buffer);
  const PoiDatabase loaded = load_csv(buffer);
  EXPECT_EQ(loaded.city_name(), city.db.city_name());
  ASSERT_EQ(loaded.pois().size(), city.db.pois().size());
  EXPECT_EQ(loaded.num_types(), city.db.num_types());
  for (std::size_t i = 0; i < loaded.pois().size(); ++i) {
    EXPECT_EQ(loaded.types().name(loaded.pois()[i].type),
              city.db.types().name(city.db.pois()[i].type));
    EXPECT_NEAR(loaded.pois()[i].pos.x, city.db.pois()[i].pos.x, 1e-6);
    EXPECT_NEAR(loaded.pois()[i].pos.y, city.db.pois()[i].pos.y, 1e-6);
  }
  EXPECT_EQ(loaded.city_freq(), city.db.city_freq());
}

TEST(Csv, RejectsMalformedHeader) {
  std::stringstream buffer("id,type,x_km,y_km\n0,cafe,1,2\n");
  EXPECT_THROW(load_csv(buffer), std::runtime_error);
}

TEST(Csv, RejectsNonDenseIds) {
  std::stringstream buffer(
      "# city=x min_x=0 min_y=0 max_x=1 max_y=1\n"
      "id,type,x_km,y_km\n5,cafe,0.5,0.5\n");
  EXPECT_THROW(load_csv(buffer), std::runtime_error);
}

}  // namespace
}  // namespace poiprivacy::poi
