#include "poi/city_model.h"

#include "poi/categories.h"

#include "poi/categories.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace poiprivacy::poi {

CityPreset beijing_preset() {
  CityPreset p;
  p.name = "beijing";
  p.width_km = 40.0;
  p.height_km = 40.0;
  p.num_pois = 10249;
  p.num_types = 177;
  p.target_rare_types = 90;
  p.num_clusters = 60;
  p.type_sigma_km = 1.1;
  return p;
}

CityPreset nyc_preset() {
  CityPreset p;
  p.name = "nyc";
  p.width_km = 48.0;
  p.height_km = 36.0;
  p.num_pois = 30056;
  p.num_types = 272;
  p.target_rare_types = 138;
  p.num_clusters = 80;
  p.rare_tail_exponent = 0.6;
  return p;
}

CityPreset test_preset() {
  CityPreset p;
  p.name = "testville";
  p.width_km = 8.0;
  p.height_km = 8.0;
  p.num_pois = 800;
  p.num_types = 40;
  p.target_rare_types = 18;
  p.num_clusters = 10;
  return p;
}

namespace {

/// Raw (real-valued) Zipf counts for exponent s, scaled to sum to total.
std::vector<double> zipf_profile(std::size_t num_types, std::size_t total,
                                 double s) {
  std::vector<double> raw(num_types);
  double norm = 0.0;
  for (std::size_t i = 0; i < num_types; ++i) {
    raw[i] = std::pow(static_cast<double>(i + 1), -s);
    norm += raw[i];
  }
  const double scale = static_cast<double>(total) / norm;
  for (double& v : raw) v *= scale;
  return raw;
}

}  // namespace

std::vector<std::int32_t> calibrated_type_counts(std::size_t num_types,
                                                 std::size_t total,
                                                 std::size_t target_rare,
                                                 std::int32_t rare_cutoff,
                                                 double tail_exponent) {
  assert(num_types > 0 && total >= num_types && target_rare <= num_types);

  // Rare tail: exactly `target_rare` types with counts in [1, rare_cutoff],
  // with the number of types at count k proportional to k^(-e) — e = 1
  // matches the many-singletons shape of real OSM extracts.
  std::vector<std::int32_t> counts;
  counts.reserve(num_types);
  double harmonic = 0.0;
  for (std::int32_t k = 1; k <= rare_cutoff; ++k) {
    harmonic += std::pow(k, -tail_exponent);
  }
  std::vector<std::size_t> types_at(static_cast<std::size_t>(rare_cutoff) + 1,
                                    0);
  std::size_t assigned = 0;
  for (std::int32_t k = rare_cutoff; k >= 2; --k) {
    const auto n = static_cast<std::size_t>(std::llround(
        static_cast<double>(target_rare) * std::pow(k, -tail_exponent) /
        harmonic));
    types_at[static_cast<std::size_t>(k)] = n;
    assigned += n;
  }
  types_at[1] = target_rare > assigned ? target_rare - assigned : 0;

  std::int64_t tail_sum = 0;
  std::vector<std::int32_t> tail;
  for (std::int32_t k = 1; k <= rare_cutoff; ++k) {
    for (std::size_t n = 0; n < types_at[static_cast<std::size_t>(k)]; ++n) {
      tail.push_back(k);
      tail_sum += k;
    }
  }

  // Head: the remaining types share the remaining POIs on a Zipf profile,
  // floored just above the rare cutoff so the rare set is exactly the tail.
  const std::size_t head_types = num_types - tail.size();
  const auto head_total = static_cast<std::int64_t>(total) - tail_sum;
  assert(head_types > 0 && head_total > 0);
  const auto profile = zipf_profile(head_types,
                                    static_cast<std::size_t>(head_total), 1.0);
  std::int64_t head_sum = 0;
  for (std::size_t i = 0; i < head_types; ++i) {
    counts.push_back(std::max<std::int32_t>(
        rare_cutoff + 1, static_cast<std::int32_t>(std::llround(profile[i]))));
    head_sum += counts.back();
  }
  // Absorb the rounding error into the most frequent types so the rare
  // tail (and thus the calibration) is untouched.
  std::int64_t delta = head_total - head_sum;
  std::size_t i = 0;
  while (delta != 0) {
    const auto step = static_cast<std::int32_t>(delta > 0 ? 1 : -1);
    if (counts[i] + step > rare_cutoff) {
      counts[i] += step;
      delta -= step;
    }
    i = (i + 1) % std::max<std::size_t>(std::size_t{1}, head_types / 4);
  }

  counts.insert(counts.end(), tail.begin(), tail.end());
  return counts;
}

City generate_city(const CityPreset& preset, std::uint64_t seed) {
  common::Rng rng(seed);
  const geo::BBox bounds{0.0, 0.0, preset.width_km, preset.height_km};

  // Cluster layout.
  CityLayout layout;
  for (std::size_t c = 0; c < preset.num_clusters; ++c) {
    layout.cluster_centers.push_back(
        {rng.uniform(bounds.min_x + 1.0, bounds.max_x - 1.0),
         rng.uniform(bounds.min_y + 1.0, bounds.max_y - 1.0)});
    layout.cluster_weights.push_back(rng.uniform(0.5, 1.5));
    layout.cluster_sigmas_km.push_back(
        rng.uniform(preset.min_cluster_sigma_km, preset.max_cluster_sigma_km));
  }

  // Type marginals calibrated to the paper's rare-type counts.
  const auto counts = calibrated_type_counts(
      preset.num_types, preset.num_pois, preset.target_rare_types, 10,
      preset.rare_tail_exponent);

  // Placement: each type owns ceil(count / capacity) "type centres" drawn
  // from the citywide cluster mixture, and its POIs scatter around those
  // centres. This gives both the citywide clustering (hot districts) and
  // the within-type spatial correlation of real cities. A small uniform
  // background keeps no area strictly empty.
  const auto draw_cluster_point = [&]() -> geo::Point {
    const std::size_t c = rng.categorical(layout.cluster_weights);
    const double sigma = layout.cluster_sigmas_km[c];
    return bounds.clamp(
        {layout.cluster_centers[c].x + rng.normal(0.0, sigma),
         layout.cluster_centers[c].y + rng.normal(0.0, sigma)});
  };

  // Type names carry a coarse category prefix (see poi/categories.h), so
  // category-level analyses work out of the box on generated cities.
  PoiTypeRegistry registry;
  for (std::size_t t = 0; t < preset.num_types; ++t) {
    registry.intern(preset.name + "/" +
                    std::string(kCategoryNames[t % kNumCategories]) + "_" +
                    std::to_string(t));
  }

  std::vector<Poi> pois;
  pois.reserve(preset.num_pois);
  PoiId next_id = 0;
  for (TypeId t = 0; t < counts.size(); ++t) {
    const auto num_centers = static_cast<std::size_t>(std::ceil(
        static_cast<double>(counts[t]) / preset.type_center_capacity));
    std::vector<geo::Point> centers(std::max<std::size_t>(1, num_centers));
    for (geo::Point& c : centers) c = draw_cluster_point();
    for (std::int32_t k = 0; k < counts[t]; ++k) {
      geo::Point pos;
      if (rng.bernoulli(preset.background_fraction)) {
        pos = {rng.uniform(bounds.min_x, bounds.max_x),
               rng.uniform(bounds.min_y, bounds.max_y)};
      } else {
        const geo::Point& center = centers[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(centers.size()) - 1))];
        pos = bounds.clamp(
            {center.x + rng.normal(0.0, preset.type_sigma_km),
             center.y + rng.normal(0.0, preset.type_sigma_km)});
      }
      pois.push_back({next_id++, t, pos});
    }
  }
  assert(pois.size() == preset.num_pois);

  return City{PoiDatabase(preset.name, std::move(pois), std::move(registry),
                          bounds),
              std::move(layout)};
}

}  // namespace poiprivacy::poi
