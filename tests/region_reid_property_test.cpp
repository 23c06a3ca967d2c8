// Property suite for RegionReidentifier (attack/region_reid.h).
//
// The type-major dominance loop is pinned to a frozen oracle over 200
// seeds: the pivot is the citywide-rarest type with a positive entry
// (ties by id), and the candidates are every POI p of the pivot type, in
// pois_of_type order, whose uncached F(p, 2r) dominates the release under
// poi::scalar_ref::dominates. Candidates, their order and the pivot type
// must match exactly, through infer() and through infer_into() with one
// ReidScratch reused across cities of different block widths.
//
// Cities: testville, Beijing, NYC, a one-type city, and planted cities
// whose pivot type has 1, 7, 8, 9, 63, 64, 65 and 129 POIs, on both sides
// of the 8-lane and 64-bit word edges; each planted city also has a type
// with no POIs. Releases: honest F(l, r) at r in {0.05, 0.5, 1, 2, 5},
// DpDefense releases, random vectors with zero and negative entries,
// honest releases with perturbed entries, a release whose only present
// type has no POI, and the all-zero release. The suite also checks the
// TypeBlock layout itself and the release-length check.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/region_reid.h"
#include "cloak/kcloak.h"
#include "common/rng.h"
#include "defense/opt_defense.h"
#include "poi/city_model.h"
#include "poi/frequency.h"

namespace poiprivacy::attack {
namespace {

using poi::FrequencyVector;
using poi::PoiDatabase;

constexpr std::array kRadii{0.05, 0.5, 1.0, 2.0, 5.0};
constexpr std::array<std::size_t, 8> kPlantedCounts{1, 7, 8, 9, 63, 64, 65,
                                                    129};
constexpr std::size_t kCommonTypes = 4;
constexpr std::size_t kCommonPerType = 200;  // above every planted count

/// One city under test, with a DP defense for the generated ones.
struct TestCity {
  std::string name;
  std::unique_ptr<PoiDatabase> db;
  std::unique_ptr<cloak::AdaptiveIntervalCloaker> cloaker;
  std::unique_ptr<defense::DpDefense> dp;
  /// Where the releases cluster: the planted type's centre, or the
  /// city's bounds for generated cities.
  geo::BBox focus;
  std::optional<poi::TypeId> empty_type;
};

std::unique_ptr<TestCity> generated(const std::string& name,
                                    const poi::CityPreset& preset,
                                    std::uint64_t seed) {
  auto city = std::make_unique<TestCity>();
  city->name = name;
  city->db = std::make_unique<PoiDatabase>(
      std::move(poi::generate_city(preset, seed).db));
  city->focus = city->db->bounds();
  common::Rng pop_rng(seed + 31);
  city->cloaker = std::make_unique<cloak::AdaptiveIntervalCloaker>(
      cloak::uniform_population(city->focus, 300, pop_rng), city->focus);
  defense::DpDefenseConfig config;
  config.k = 8;
  city->dp =
      std::make_unique<defense::DpDefense>(*city->db, *city->cloaker, config);
  return city;
}

/// A 10 x 10 km city: `planted` POIs of type 0 around (5, 5), then
/// kCommonTypes types of kCommonPerType POIs each spread uniformly, then
/// one type with no POIs. Type 0 is the rarest type that has POIs.
std::unique_ptr<TestCity> planted(std::size_t planted_count) {
  const geo::BBox bounds{0.0, 0.0, 10.0, 10.0};
  common::Rng rng(planted_count * 97 + 5);
  std::vector<poi::Poi> pois;
  const auto add = [&pois](poi::TypeId type, geo::Point pos) {
    pois.push_back({static_cast<poi::PoiId>(pois.size()), type, pos});
  };
  for (std::size_t i = 0; i < planted_count; ++i) {
    add(0, {5.0 + rng.normal(0.0, 0.6), 5.0 + rng.normal(0.0, 0.6)});
  }
  for (std::size_t t = 1; t <= kCommonTypes; ++t) {
    for (std::size_t i = 0; i < kCommonPerType; ++i) {
      add(static_cast<poi::TypeId>(t),
          {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    }
  }
  std::vector<std::string> names{"planted"};
  for (std::size_t t = 1; t <= kCommonTypes; ++t) {
    names.push_back("common" + std::to_string(t));
  }
  names.push_back("empty");
  auto city = std::make_unique<TestCity>();
  city->name = "planted" + std::to_string(planted_count);
  city->db = std::make_unique<PoiDatabase>(
      city->name, std::move(pois), poi::PoiTypeRegistry(std::move(names)),
      bounds);
  city->focus = {3.5, 3.5, 6.5, 6.5};
  city->empty_type = static_cast<poi::TypeId>(kCommonTypes + 1);
  return city;
}

std::unique_ptr<TestCity> one_type() {
  common::Rng rng(4242);
  std::vector<poi::Poi> pois;
  for (poi::PoiId i = 0; i < 300; ++i) {
    pois.push_back({i, 0, {rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)}});
  }
  auto city = std::make_unique<TestCity>();
  city->name = "one_type";
  city->db = std::make_unique<PoiDatabase>(
      city->name, std::move(pois), poi::PoiTypeRegistry({"only"}),
      geo::BBox{0.0, 0.0, 6.0, 6.0});
  city->focus = city->db->bounds();
  return city;
}

const std::vector<std::unique_ptr<TestCity>>& cities() {
  static const auto* all = [] {
    auto* out = new std::vector<std::unique_ptr<TestCity>>();
    out->push_back(generated("testville", poi::test_preset(), 3));
    out->push_back(generated("beijing", poi::beijing_preset(), 1));
    out->push_back(generated("nyc", poi::nyc_preset(), 1));
    out->push_back(one_type());
    for (const std::size_t n : kPlantedCounts) out->push_back(planted(n));
    return out;
  }();
  return *all;
}

/// The frozen definition of the baseline attack: no caches, no blocks.
ReidResult oracle(const PoiDatabase& db, const FrequencyVector& released,
                  double r) {
  ReidResult out;
  const FrequencyVector& city = db.city_freq();
  for (poi::TypeId t = 0; t < released.size(); ++t) {
    if (released[t] <= 0) continue;
    if (!out.pivot_type || city[t] < city[*out.pivot_type]) out.pivot_type = t;
  }
  if (!out.pivot_type) return out;
  for (const poi::PoiId id : db.pois_of_type(*out.pivot_type)) {
    if (poi::scalar_ref::dominates(db.freq(db.poi(id).pos, 2.0 * r),
                                   released)) {
      out.candidates.push_back(id);
    }
  }
  return out;
}

constexpr std::uint64_t kSeeds = 200;

/// Runs releases through infer() and through infer_into() with one
/// long-lived scratch, and compares both with the oracle.
class Checker {
 public:
  void check(const TestCity& city, const FrequencyVector& released, double r,
             const char* kind, std::uint64_t seed) {
    const RegionReidentifier reid(*city.db);
    const ReidResult want = oracle(*city.db, released, r);
    const ReidResult got = reid.infer(released, r);
    ASSERT_EQ(got.pivot_type, want.pivot_type)
        << city.name << " " << kind << " r=" << r << " seed " << seed;
    ASSERT_EQ(got.candidates, want.candidates)
        << city.name << " " << kind << " r=" << r << " seed " << seed;
    reid.infer_into(released, r, scratch_, reused_);
    ASSERT_EQ(reused_.pivot_type, want.pivot_type)
        << city.name << " " << kind << " r=" << r << " seed " << seed;
    ASSERT_EQ(reused_.candidates, want.candidates)
        << city.name << " " << kind << " r=" << r << " seed " << seed;
  }

 private:
  ReidScratch scratch_;
  ReidResult reused_;
};

geo::Point draw(const geo::BBox& box, common::Rng& rng) {
  return {rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)};
}

TEST(RegionReidProperty, HonestReleasesMatchOracle) {
  Checker checker;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(seed * 7919 + 1);
    for (const auto& city : cities()) {
      for (const double r : kRadii) {
        ASSERT_NO_FATAL_FAILURE(checker.check(
            *city, city->db->freq(draw(city->focus, rng), r), r, "honest",
            seed));
      }
    }
  }
}

TEST(RegionReidProperty, DpReleasesMatchOracle) {
  Checker checker;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(seed * 6151 + 2);
    const double r = kRadii[seed % kRadii.size()];
    for (const auto& city : cities()) {
      if (!city->dp) continue;
      ASSERT_NO_FATAL_FAILURE(checker.check(
          *city, city->dp->release(draw(city->focus, rng), r, rng), r, "dp",
          seed));
    }
  }
}

// Sparse random vectors (mostly 0, some negative) and honest releases with
// entries zeroed, negated or moved by one, which land on the >= edge.
TEST(RegionReidProperty, RandomAndPerturbedVectorsMatchOracle) {
  Checker checker;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(seed * 3571 + 3);
    for (const auto& city : cities()) {
      const std::size_t m = city->db->num_types();
      const double r = kRadii[seed % kRadii.size()];
      FrequencyVector random(m, 0);
      for (std::int32_t& v : random) {
        if (rng.bernoulli(0.2)) {
          v = static_cast<std::int32_t>(rng.uniform_int(-3, 4));
        }
      }
      ASSERT_NO_FATAL_FAILURE(checker.check(*city, random, r, "random", seed));

      FrequencyVector perturbed = city->db->freq(draw(city->focus, rng), r);
      for (std::int32_t& v : perturbed) {
        if (!rng.bernoulli(0.3)) continue;
        switch (rng.uniform_int(0, 3)) {
          case 0: v = 0; break;
          case 1: v = -v - 1; break;
          case 2: v += 1; break;
          default: v -= 1; break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(
          checker.check(*city, perturbed, r, "perturbed", seed));
    }
  }
}

// The all-zero release (and one whose only nonzero entry is negative) has
// no pivot. A present type with no POI is the pivot (city count 0) and
// yields no candidates, alone or beside an honest release.
TEST(RegionReidProperty, EmptyPivotAndAllZeroReleasesMatchOracle) {
  Checker checker;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    common::Rng rng(seed * 2713 + 4);
    const double r = kRadii[seed % kRadii.size()];
    for (const auto& city : cities()) {
      const std::size_t m = city->db->num_types();
      FrequencyVector zero(m, 0);
      ASSERT_NO_FATAL_FAILURE(checker.check(*city, zero, r, "all-zero", seed));
      zero[rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)] = -1;
      ASSERT_NO_FATAL_FAILURE(
          checker.check(*city, zero, r, "one-negative", seed));
      if (!city->empty_type) continue;
      FrequencyVector only_empty(m, 0);
      only_empty[*city->empty_type] = 1 + static_cast<std::int32_t>(seed % 3);
      ASSERT_NO_FATAL_FAILURE(
          checker.check(*city, only_empty, r, "only-empty-type", seed));
      FrequencyVector with_empty = city->db->freq(draw(city->focus, rng), r);
      with_empty[*city->empty_type] = 1;
      ASSERT_NO_FATAL_FAILURE(
          checker.check(*city, with_empty, r, "with-empty-type", seed));
    }
  }
}

// The honest corpus is not vacuous on the lane edges: in every planted
// city the planted type is the pivot, some releases keep a strict subset
// of its POIs, and some keep the last live lane, the one before the pad.
TEST(RegionReidProperty, PlantedCorpusReachesTheLastLaneAndMixedMasks) {
  for (const auto& city : cities()) {
    if (!city->empty_type) continue;
    const PoiDatabase& db = *city->db;
    const RegionReidentifier reid(db);
    const std::size_t n = db.pois_of_type(0).size();
    std::size_t planted_pivot = 0, mixed = 0, last_lane = 0;
    common::Rng rng(n);
    for (int trial = 0; trial < 400; ++trial) {
      const double r = kRadii[trial % kRadii.size()];
      const geo::Point l{rng.uniform(city->focus.min_x, city->focus.max_x),
                         rng.uniform(city->focus.min_y, city->focus.max_y)};
      const ReidResult result = reid.infer(db.freq(l, r), r);
      if (result.pivot_type != poi::TypeId{0}) continue;
      ++planted_pivot;
      mixed += !result.candidates.empty() && result.candidates.size() < n;
      last_lane += !result.candidates.empty() &&
                   result.candidates.back() == db.pois_of_type(0).back();
    }
    EXPECT_GT(planted_pivot, 50u) << city->name;
    EXPECT_GT(last_lane, 0u) << city->name;
    if (n > 1) {
      EXPECT_GT(mixed, 0u) << city->name;
    }
  }
}

// The block itself: row t, column j holds F(p_j, radius)[t] for the j-th
// POI of the type; the stride is the count rounded up to 8 and the pad
// columns are 0.
TEST(RegionReidProperty, TypeBlockRowsHoldAnchorCountsAndZeroPads) {
  for (const auto& city : cities()) {
    const PoiDatabase& db = *city->db;
    for (poi::TypeId type = 0; type < db.num_types(); type += 1 + type / 4) {
      for (const double radius : {0.4, 2.0}) {
        const poi::TypeBlock& block = db.type_block(type, radius);
        const std::vector<poi::PoiId>& ids = db.pois_of_type(type);
        ASSERT_EQ(block.count, ids.size()) << city->name << " type " << type;
        ASSERT_EQ(block.stride, (ids.size() + 7) / 8 * 8);
        ASSERT_EQ(block.counts.size(), db.num_types() * block.stride);
        for (std::size_t j = 0; j < block.stride; ++j) {
          const FrequencyVector anchor =
              j < ids.size() ? db.freq(db.poi(ids[j]).pos, radius)
                             : FrequencyVector(db.num_types(), 0);
          for (poi::TypeId t = 0; t < db.num_types(); ++t) {
            ASSERT_EQ(block.row(t)[j], anchor[t])
                << city->name << " type " << type << " column " << j
                << " row " << t << " radius " << radius;
          }
        }
      }
    }
  }
}

// A release whose length is not the city's type count is rejected in every
// build type, before any state changes.
TEST(RegionReidProperty, ReleaseOfWrongLengthThrows) {
  const PoiDatabase& db = *cities().front()->db;
  const RegionReidentifier reid(db);
  for (const std::size_t size : {db.num_types() - 1, db.num_types() + 1,
                                 std::size_t{0}}) {
    const FrequencyVector released(size, 1);
    EXPECT_THROW((void)reid.infer(released, 1.0), std::invalid_argument)
        << "size " << size;
    ReidScratch scratch;
    ReidResult out;
    out.candidates = {7};
    out.pivot_type = 3;
    EXPECT_THROW(reid.infer_into(released, 1.0, scratch, out),
                 std::invalid_argument)
        << "size " << size;
    EXPECT_EQ(out.candidates, std::vector<poi::PoiId>{7});
    EXPECT_EQ(out.pivot_type, poi::TypeId{3});
  }
}

}  // namespace
}  // namespace poiprivacy::attack
