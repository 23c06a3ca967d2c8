// Property tests: every spatial index must agree with a brute-force scan
// over the same point set. Each backend gets ~200 randomized cases
// (point clouds with duplicates, degenerate and empty sets, boundary-
// grazing queries), seeded via Rng::substream so case i is reproducible
// in isolation. The grid index is also pinned to a frozen copy of its
// earlier vector-of-vectors layout, id order included, and the database's
// Freq entry points to a per-POI scan. Its disk queries must match the
// predicate alone: points nudged a few ulps around the disk's edge, and
// negative or NaN radii (which match nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/geometry.h"
#include "poi/city_model.h"
#include "spatial/grid_index.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"

namespace poiprivacy {
namespace {

constexpr std::size_t kCases = 200;
constexpr geo::BBox kBounds{0.0, 0.0, 10.0, 8.0};

/// Random cloud inside kBounds. Roughly a third of the points are exact
/// duplicates of earlier ones, to stress tie handling.
std::vector<geo::Point> random_points(common::Rng& rng, std::size_t n) {
  std::vector<geo::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!points.empty() && rng.bernoulli(0.3)) {
      points.push_back(points[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(points.size()) - 1))]);
    } else {
      points.push_back({rng.uniform(kBounds.min_x, kBounds.max_x),
                        rng.uniform(kBounds.min_y, kBounds.max_y)});
    }
  }
  return points;
}

/// Query centers may fall outside the indexed bounds.
geo::Point random_center(common::Rng& rng) {
  return {rng.uniform(kBounds.min_x - 2.0, kBounds.max_x + 2.0),
          rng.uniform(kBounds.min_y - 2.0, kBounds.max_y + 2.0)};
}

geo::BBox random_box(common::Rng& rng) {
  const geo::Point a = random_center(rng);
  const geo::Point b = random_center(rng);
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
          std::max(a.y, b.y)};
}

std::vector<std::uint32_t> brute_disk(const std::vector<geo::Point>& points,
                                      geo::Point center, double radius) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (geo::distance_sq(points[i], center) <= radius * radius) {
      ids.push_back(i);
    }
  }
  return ids;
}

std::vector<std::uint32_t> brute_box(const std::vector<geo::Point>& points,
                                     const geo::BBox& box) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (box.contains(points[i])) ids.push_back(i);
  }
  return ids;
}

std::vector<std::uint32_t> sorted(std::vector<std::uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Distances of `ids` to `query`, ascending — the tie-insensitive way to
/// compare nearest-neighbour answers.
std::vector<double> distances_to(const std::vector<geo::Point>& points,
                                 const std::vector<std::uint32_t>& ids,
                                 geo::Point query) {
  std::vector<double> out;
  out.reserve(ids.size());
  for (const std::uint32_t id : ids) {
    out.push_back(geo::distance(points[id], query));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialProperty, GridIndexMatchesBruteForceDisk) {
  const common::Rng base(0x57A71A11u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::GridIndex index(points, kBounds,
                                   rng.uniform(0.2, 1.5));
    for (int q = 0; q < 4; ++q) {
      const geo::Point center = random_center(rng);
      const double radius = rng.uniform(0.0, 5.0);
      const auto expected = sorted(brute_disk(points, center, radius));
      EXPECT_EQ(sorted(index.query_disk(center, radius)), expected)
          << "case " << c << " query " << q;
      EXPECT_EQ(index.count_in_disk(center, radius), expected.size())
          << "case " << c << " query " << q;
    }
  }
}

/// The grid index as it was before the cell-ordered (CSR) layout: one
/// id vector per cell, points kept in id order. Frozen here as the oracle
/// for the visiting order that query_disk callers depend on.
class LegacyGridIndex {
 public:
  LegacyGridIndex(std::vector<geo::Point> points, geo::BBox bounds,
                  double cell_km)
      : points_(std::move(points)), bounds_(bounds), cell_km_(cell_km) {
    nx_ = std::max(1, static_cast<int>(std::ceil(bounds_.width() / cell_km_)));
    ny_ = std::max(1, static_cast<int>(std::ceil(bounds_.height() / cell_km_)));
    cells_.resize(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_));
    for (std::uint32_t id = 0; id < points_.size(); ++id) {
      const auto [cx, cy] = cell_of(points_[id]);
      cells_[cell_index(cx, cy)].push_back(id);
    }
  }

  std::vector<std::uint32_t> query_disk(geo::Point center,
                                        double radius) const {
    std::vector<std::uint32_t> out;
    const double r_sq = radius * radius;
    const auto [cx0, cy0] = cell_of({center.x - radius, center.y - radius});
    const auto [cx1, cy1] = cell_of({center.x + radius, center.y + radius});
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        for (const std::uint32_t id : cells_[cell_index(cx, cy)]) {
          if (geo::distance_sq(points_[id], center) <= r_sq) out.push_back(id);
        }
      }
    }
    return out;
  }

 private:
  // Casts before clamping, so callers keep centres within a few cells of
  // the bounds (the int conversion is then in range).
  std::pair<int, int> cell_of(geo::Point p) const noexcept {
    const int cx = static_cast<int>((p.x - bounds_.min_x) / cell_km_);
    const int cy = static_cast<int>((p.y - bounds_.min_y) / cell_km_);
    return {std::clamp(cx, 0, nx_ - 1), std::clamp(cy, 0, ny_ - 1)};
  }
  std::size_t cell_index(int cx, int cy) const noexcept {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  }

  std::vector<geo::Point> points_;
  geo::BBox bounds_;
  double cell_km_;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::vector<std::uint32_t>> cells_;
};

/// Per-point label histogram of the disk (the brute-force oracle of
/// count_labels_in_disk).
std::vector<std::int32_t> brute_label_counts(
    const std::vector<geo::Point>& points,
    const std::vector<std::uint32_t>& labels, std::size_t num_labels,
    geo::Point center, double radius) {
  std::vector<std::int32_t> counts(num_labels, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (geo::distance_sq(points[i], center) <= radius * radius) {
      ++counts[labels[i]];
    }
  }
  return counts;
}

/// Multiples of 1/8 km: sums, differences and squares of these stay exact
/// in double, so a point placed at offset (r, 0) or a scaled 3-4-5 triple
/// from a centre sits at distance exactly r under distance_sq.
double eighths(common::Rng& rng, double lo, double hi) {
  return static_cast<double>(rng.uniform_int(static_cast<std::int64_t>(lo * 8),
                                             static_cast<std::int64_t>(hi * 8))) /
         8.0;
}

TEST(SpatialProperty, GridIndexMatchesLegacyOrderAndLabelCounts) {
  const common::Rng base(0x57A71A66u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    // Cell sizes on the 1/8 grid put points on cell edges exactly.
    const double cell_km = eighths(rng, 0.25, 1.5);
    auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    // Points exactly on cell edges and corners (the bounds' max edges
    // included).
    const auto on_edges = rng.uniform_int(0, 10);
    for (std::int64_t e = 0; e < on_edges; ++e) {
      const double x = kBounds.min_x +
                       cell_km * static_cast<double>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(
                                            kBounds.width() / cell_km)));
      const double y = rng.bernoulli(0.5) ? eighths(rng, 0.0, 8.0)
                                          : kBounds.min_y + cell_km * 2.0;
      points.push_back(rng.bernoulli(0.5) ? geo::Point{x, y}
                                          : geo::Point{y, x});
    }
    // Boundary queries: a centre on the 1/8 grid (possibly outside the
    // bounds) with points at distance exactly r — on the axes at edge_r,
    // and on scaled 3-4-5 triples at tri_r.
    const geo::Point edge_center{eighths(rng, -1.0, 11.0),
                                 eighths(rng, -1.0, 9.0)};
    const double edge_r = eighths(rng, 0.125, 5.0);
    const double m = static_cast<double>(rng.uniform_int(1, 8)) / 8.0;
    const double tri_r = 5.0 * m;
    for (const geo::Point off :
         {geo::Point{edge_r, 0.0}, geo::Point{0.0, -edge_r},
          geo::Point{-edge_r, 0.0}, geo::Point{3.0 * m, 4.0 * m},
          geo::Point{-4.0 * m, 3.0 * m}, geo::Point{-3.0 * m, -4.0 * m}}) {
      points.push_back({edge_center.x + off.x, edge_center.y + off.y});
    }
    if (rng.bernoulli(0.1)) points.clear();  // the empty index
    const std::size_t num_labels =
        static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<std::uint32_t> labels(points.size());
    for (std::uint32_t& l : labels) {
      l = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_labels) - 1));
    }

    const spatial::GridIndex index(points, kBounds, cell_km, labels);
    const LegacyGridIndex legacy(points, kBounds, cell_km);
    ASSERT_EQ(index.size(), points.size());
    std::vector<std::pair<geo::Point, double>> queries = {
        {edge_center, edge_r},
        {edge_center, std::nextafter(edge_r, 0.0)},
        {edge_center, tri_r},
        {edge_center, std::nextafter(tri_r, 0.0)},
        {{-40.0, 3.0}, 5.0},  // far outside: nothing
        {{5.0, 4.0}, 0.0},
    };
    for (int k = 0; k < 6; ++k) {
      queries.push_back({random_center(rng), rng.uniform(0.1, 5.0)});
    }
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const auto [center, radius] = queries[k];
      const auto ids = index.query_disk(center, radius);
      EXPECT_EQ(ids, legacy.query_disk(center, radius))
          << "case " << c << " query " << k;
      EXPECT_EQ(sorted(ids), brute_disk(points, center, radius))
          << "case " << c << " query " << k;
      EXPECT_EQ(index.count_in_disk(center, radius), ids.size())
          << "case " << c << " query " << k;
      std::vector<std::int32_t> counts(num_labels, 0);
      index.count_labels_in_disk(center, radius, counts);
      EXPECT_EQ(counts, brute_label_counts(points, labels, num_labels, center,
                                           radius))
          << "case " << c << " query " << k;
    }
    // The boundary points are inside at exactly r and outside just below.
    if (!points.empty()) {
      EXPECT_GE(index.count_in_disk(edge_center, edge_r) -
                    index.count_in_disk(edge_center,
                                        std::nextafter(edge_r, 0.0)),
                3u)
          << "case " << c;
      EXPECT_GE(index.count_in_disk(edge_center, tri_r) -
                    index.count_in_disk(edge_center,
                                        std::nextafter(tri_r, 0.0)),
                3u)
          << "case " << c;
    }
  }
}

TEST(SpatialProperty, GridIndexLabelCountsAccumulate) {
  const std::vector<geo::Point> points = {{1.0, 1.0}, {1.5, 1.0}, {9.0, 7.0}};
  const std::vector<std::uint32_t> labels = {2, 0, 2};
  const spatial::GridIndex index(points, kBounds, 0.5, labels);
  std::vector<std::int32_t> counts = {10, 20, 30};
  index.count_labels_in_disk({1.0, 1.0}, 0.5, counts);
  EXPECT_EQ(counts, (std::vector<std::int32_t>{11, 20, 31}));
  // Without labels every point counts under label 0.
  const spatial::GridIndex unlabelled(points, kBounds, 0.5);
  std::vector<std::int32_t> one(1, 0);
  unlabelled.count_labels_in_disk({5.0, 4.0}, 100.0, one);
  EXPECT_EQ(one[0], 3);
}

// Freq(l, r) through the grid's label-count scan equals a per-POI scan of
// the database, for freq_into (with a dirty reused buffer) and freq_batch,
// on the test and Beijing presets.
TEST(SpatialProperty, DatabaseFreqMatchesPerPoiScan) {
  for (const poi::CityPreset& preset :
       {poi::test_preset(), poi::beijing_preset()}) {
    const poi::City city = poi::generate_city(preset, 5);
    const poi::PoiDatabase& db = city.db;
    const geo::BBox& b = db.bounds();
    const auto per_poi = [&db](geo::Point center, double radius) {
      poi::FrequencyVector f(db.num_types(), 0);
      for (const poi::Poi& p : db.pois()) {
        if (geo::distance_sq(p.pos, center) <= radius * radius) ++f[p.type];
      }
      return f;
    };
    common::Rng rng(0x57A71A77u);
    std::vector<geo::Point> centers;
    for (int k = 0; k < 24; ++k) {
      centers.push_back({rng.uniform(b.min_x - 1.0, b.max_x + 1.0),
                         rng.uniform(b.min_y - 1.0, b.max_y + 1.0)});
    }
    centers.push_back(db.poi(0).pos);  // a POI exactly at the centre
    poi::FrequencyVector reused(3, 99);
    poi::FreqArena arena;
    for (const double radius : {0.1, 0.5, 1.0, 2.0, 5.0}) {
      db.freq_batch(centers, radius, arena);
      for (std::size_t i = 0; i < centers.size(); ++i) {
        const poi::FrequencyVector expected = per_poi(centers[i], radius);
        db.freq_into(centers[i], radius, reused);
        EXPECT_EQ(reused, expected)
            << preset.name << " r=" << radius << " centre " << i;
        const auto row = arena.row(i);
        EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                               expected.end()))
            << preset.name << " r=" << radius << " centre " << i;
      }
    }
  }
}

/// All four disk queries of `index` against the predicate over every
/// point: query_disk (as a set), for_each_in_disk (ids in query_disk's
/// order), count_in_disk and count_labels_in_disk.
void expect_disk_queries_match_predicate(
    const spatial::GridIndex& index, const std::vector<geo::Point>& points,
    const std::vector<std::uint32_t>& labels, std::size_t num_labels,
    geo::Point center, double radius, const std::string& what) {
  std::vector<std::uint32_t> expected;
  if (radius >= 0.0) expected = brute_disk(points, center, radius);
  const auto ids = index.query_disk(center, radius);
  EXPECT_EQ(sorted(ids), expected) << what;
  std::vector<std::uint32_t> visited;
  index.for_each_in_disk(center, radius, [&](std::uint32_t id, geo::Point p) {
    EXPECT_EQ(p, points[id]) << what;
    visited.push_back(id);
  });
  EXPECT_EQ(visited, ids) << what;
  EXPECT_EQ(index.count_in_disk(center, radius), expected.size()) << what;
  std::vector<std::int32_t> counts(num_labels, 0);
  index.count_labels_in_disk(center, radius, counts);
  std::vector<std::int32_t> want(num_labels, 0);
  for (const std::uint32_t id : expected) ++want[labels[id]];
  EXPECT_EQ(counts, want) << what;
}

// A negative or NaN radius matches nothing on any query, even when
// radius * radius would accept a point (an inverted bounding square that
// falls inside one cell used to scan it).
TEST(SpatialProperty, GridIndexNegativeRadiusIsEmpty) {
  const std::vector<geo::Point> two = {{1.25, 1.25}, {1.255, 1.25}};
  const std::vector<std::uint32_t> two_labels = {0, 1};
  const spatial::GridIndex pair(two, kBounds, 0.5, two_labels);
  EXPECT_EQ(pair.count_in_disk({1.25, 1.25}, -0.01), 0u);
  EXPECT_EQ(pair.count_in_disk({1.25, 1.25}, -1.0), 0u);
  EXPECT_EQ(pair.count_in_disk({1.25, 1.25}, 0.01), 2u);
  const common::Rng base(0x57A71A88u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(1, 60)));
    std::vector<std::uint32_t> labels(points.size());
    for (std::uint32_t& l : labels) {
      l = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    }
    const spatial::GridIndex index(points, kBounds, rng.uniform(0.2, 1.5),
                                   labels);
    // Centres on a point, so the square of the radius would accept it.
    const geo::Point on_point = points[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))];
    for (const double radius :
         {-1e-12, -rng.uniform(0.0, 0.1), -rng.uniform(0.0, 5.0), -1e200,
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
      for (const geo::Point center : {on_point, random_center(rng)}) {
        expect_disk_queries_match_predicate(
            index, points, labels, 4, center, radius,
            "case " + std::to_string(c) + " r=" + std::to_string(radius));
        EXPECT_TRUE(index.query_disk(center, radius).empty());
      }
    }
  }
}

// Points a few ulps either side of the disk's edge, on cell sizes of 0.5,
// 0.37 and 1/3 km: every query equals the predicate over all points. Half
// the cases put the centre at B + r for a cell boundary B, with a point
// one ulp below B on the centre's axis: distance_sq rounds to r * r there,
// while B + r - r == B puts the plain bounding square's edge in the next
// cell, so only the window's slack reaches the point.
TEST(SpatialProperty, GridIndexEdgeNudgedPointsMatchPredicate) {
  const common::Rng base(0x57A71A99u);
  const double cells[] = {0.5, 0.37, 1.0 / 3.0};
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const double cell_km = cells[c % 3];
    geo::Point center;
    double radius;
    std::vector<geo::Point> points;
    if (c % 2 == 0) {
      radius = static_cast<double>(rng.uniform_int(1, 4));
      const double b =
          cell_km * static_cast<double>(rng.uniform_int(1, 5));
      const double lane = rng.uniform(0.0, 8.0);
      const bool along_x = rng.bernoulli(0.5);
      center = along_x ? geo::Point{b + radius, lane}
                       : geo::Point{lane, b + radius};
      const double below = std::nextafter(b, 0.0);
      points.push_back(along_x ? geo::Point{below, lane}
                               : geo::Point{lane, below});
    } else {
      center = {rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 9.0)};
      radius = rng.uniform(0.05, 4.0);
    }
    // Points on the circle, each coordinate nudged by up to 3 ulps.
    const auto nudge = [&rng](double v) {
      const auto steps = rng.uniform_int(-3, 3);
      for (std::int64_t s = 0; s < (steps < 0 ? -steps : steps); ++s) {
        v = std::nextafter(v, steps < 0 ? -1e300 : 1e300);
      }
      return v;
    };
    for (int i = 0; i < 40; ++i) {
      const double theta = rng.uniform(0.0, 6.283185307179586);
      points.push_back({nudge(center.x + radius * std::cos(theta)),
                        nudge(center.y + radius * std::sin(theta))});
    }
    for (const geo::Point off : {geo::Point{radius, 0.0},
                                 geo::Point{-radius, 0.0},
                                 geo::Point{0.0, radius},
                                 geo::Point{0.0, -radius}}) {
      points.push_back({nudge(center.x + off.x), nudge(center.y + off.y)});
    }
    std::vector<std::uint32_t> labels(points.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::uint32_t>(i % 3);
    }
    const spatial::GridIndex index(points, kBounds, cell_km, labels);
    for (const double r : {radius, std::nextafter(radius, 0.0),
                           std::nextafter(radius, 1e300)}) {
      expect_disk_queries_match_predicate(
          index, points, labels, 3, center, r,
          "case " + std::to_string(c) + " cell " + std::to_string(cell_km));
    }
  }
}

TEST(SpatialProperty, QuadtreeMatchesBruteForceBox) {
  const common::Rng base(0x57A71A33u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::Quadtree tree(
        points, kBounds, static_cast<std::size_t>(rng.uniform_int(1, 8)),
        static_cast<int>(rng.uniform_int(2, 12)));
    for (int q = 0; q < 4; ++q) {
      const geo::BBox box = random_box(rng);
      const auto expected = sorted(brute_box(points, box));
      EXPECT_EQ(sorted(tree.query_box(box)), expected)
          << "case " << c << " query " << q;
      EXPECT_EQ(tree.count_in_box(box), expected.size())
          << "case " << c << " query " << q;
    }
  }
}

TEST(SpatialProperty, KdTreeNearestMatchesBruteForce) {
  const common::Rng base(0x57A71A44u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::KdTree tree(points);
    for (int q = 0; q < 4; ++q) {
      const geo::Point query = random_center(rng);
      const auto got = tree.nearest(query);
      if (points.empty()) {
        EXPECT_FALSE(got.has_value()) << "case " << c;
        continue;
      }
      ASSERT_TRUE(got.has_value()) << "case " << c;
      double best = geo::distance(points[0], query);
      for (const geo::Point& p : points) {
        best = std::min(best, geo::distance(p, query));
      }
      // Ties make the winning id ambiguous; the distance is not.
      EXPECT_DOUBLE_EQ(geo::distance(points[*got], query), best)
          << "case " << c << " query " << q;
    }
  }
}

TEST(SpatialProperty, KdTreeKNearestMatchesBruteForce) {
  const common::Rng base(0x57A71A55u);
  for (std::size_t c = 0; c < kCases; ++c) {
    common::Rng rng = base.substream(c);
    const auto points =
        random_points(rng, static_cast<std::size_t>(rng.uniform_int(0, 60)));
    const spatial::KdTree tree(points);
    for (int q = 0; q < 4; ++q) {
      const geo::Point query = random_center(rng);
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 70));
      const auto got = tree.k_nearest(query, k);
      ASSERT_EQ(got.size(), std::min(k, points.size())) << "case " << c;
      // Closest first.
      for (std::size_t i = 1; i < got.size(); ++i) {
        EXPECT_LE(geo::distance(points[got[i - 1]], query),
                  geo::distance(points[got[i]], query))
            << "case " << c << " rank " << i;
      }
      // The returned distance multiset is the k smallest overall.
      std::vector<std::uint32_t> all(points.size());
      for (std::uint32_t i = 0; i < points.size(); ++i) all[i] = i;
      std::vector<double> expected = distances_to(points, all, query);
      expected.resize(got.size());
      const std::vector<double> actual = distances_to(points, got, query);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(actual[i], expected[i])
            << "case " << c << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace poiprivacy
