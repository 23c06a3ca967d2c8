// TileAggregates windows against brute force (poi/tile_aggregates.h):
//
//   * the prefix-sum window bounds are EXACT counts over the tile-aligned
//     covering rectangle — verified against a direct scan of the POI set
//     on 200 seeded probes, including out-of-bounds probes that clamp
//     into edge tiles;
//   * NaN, infinite and far-off probes and radii clamp into the grid
//     without overflowing an int cast, and keep the property above.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "poi/city_model.h"
#include "poi/frequency.h"
#include "poi/tile_aggregates.h"

namespace poiprivacy {
namespace {

using poi::FrequencyVector;
using poi::TileAggregates;

class SeededTileCity : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  poi::City city() const {
    return poi::generate_city(poi::test_preset(), GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTileCity,
                         ::testing::Values(1u, 7u, 21u, 42u));

// Window bounds vs brute force: the covering rectangle of disk(p, r)
// spans [tile_of(p - r), tile_of(p + r)] per axis (the same clamped
// binning formula the constructor uses), so counting POIs whose home
// tile falls inside that rectangle must reproduce the prefix-sum reads
// exactly. 50 probes x 4 seeds = 200 seeded cases.
TEST_P(SeededTileCity, WindowBoundsEqualBruteForceRectangleCounts) {
  const poi::City c = city();
  const TileAggregates& tiles = c.db.tile_aggregates();
  common::Rng rng(GetParam() * 409 + 11);
  for (int trial = 0; trial < 50; ++trial) {
    const geo::Point p{rng.uniform(-2.0, 10.0), rng.uniform(-2.0, 10.0)};
    const double r = rng.uniform(0.05, 3.0);
    const TileAggregates::Tile lo = tiles.tile_of({p.x - r, p.y - r});
    const TileAggregates::Tile hi = tiles.tile_of({p.x + r, p.y + r});

    FrequencyVector expect(c.db.num_types(), 0);
    std::int64_t expect_total = 0;
    for (const poi::Poi& poi : c.db.pois()) {
      const TileAggregates::Tile home = tiles.tile_of(poi.pos);
      if (home.ix >= lo.ix && home.ix <= hi.ix && home.iy >= lo.iy &&
          home.iy <= hi.iy) {
        ++expect[poi.type];
        ++expect_total;
      }
    }

    const TileAggregates::Window win = tiles.window(p, r);
    ASSERT_EQ(win.total_bound(), expect_total)
        << "probe (" << p.x << ", " << p.y << ") r=" << r;
    for (poi::TypeId t = 0; t < expect.size(); ++t) {
      ASSERT_EQ(win.type_bound(t), expect[t])
          << "probe (" << p.x << ", " << p.y << ") r=" << r << " type=" << t;
    }
  }
}

// Non-finite and far-off probes and radii (NaN, ±inf, ±1e300): tile_of
// clamps in floating point before it casts, so every probe lands in a
// grid tile (NaN in tile 0, far-off values on their own side) instead of
// overflowing int, which the ASan/UBSan build (float-cast-overflow)
// aborts on. Where the covering rectangle is not inverted, the window
// still equals the brute-force count.
TEST_P(SeededTileCity, ExtremeProbesAndRadiiClampIntoTheGrid) {
  const poi::City c = city();
  const TileAggregates& tiles = c.db.tile_aggregates();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::array values{kNaN, kInf, -kInf, 1e300, -1e300, 3.5};
  for (const double v : {kNaN, kInf, -kInf, 1e300, -1e300}) {
    const TileAggregates::Tile t = tiles.tile_of({v, v});
    EXPECT_EQ(t.ix, v > 0 ? tiles.nx() - 1 : 0) << v;
    EXPECT_EQ(t.iy, v > 0 ? tiles.ny() - 1 : 0) << v;
  }
  for (const double px : values) {
    for (const double py : values) {
      for (const double r : {kNaN, kInf, -kInf, 1e300, -1e300, 1.5}) {
        const geo::Point p{px, py};
        const TileAggregates::Tile lo = tiles.tile_of({p.x - r, p.y - r});
        const TileAggregates::Tile hi = tiles.tile_of({p.x + r, p.y + r});
        const TileAggregates::Window win = tiles.window(p, r);
        if (lo.ix <= hi.ix && lo.iy <= hi.iy) {
          std::int64_t expect_total = 0;
          for (const poi::Poi& poi : c.db.pois()) {
            const TileAggregates::Tile home = tiles.tile_of(poi.pos);
            expect_total += home.ix >= lo.ix && home.ix <= hi.ix &&
                            home.iy >= lo.iy && home.iy <= hi.iy;
          }
          ASSERT_EQ(win.total_bound(), expect_total)
              << "probe (" << px << ", " << py << ") r=" << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace poiprivacy
