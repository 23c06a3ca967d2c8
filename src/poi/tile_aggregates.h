// TileAggregates — per-tile POI count upper bounds for candidate pruning.
//
// The fingerprint attack showed that a per-cell *envelope* (an aggregate
// that provably dominates F(p, r) for every p in the cell) turns a disk
// query into a table lookup. This structure generalizes that machinery
// into a reusable, radius-independent form: POIs are binned once into a
// regular tile grid and 2-D prefix sums are built per type, so for ANY
// probe p and radius r the count of type-t POIs inside the tile-aligned
// rectangle covering disk(p, r) is four array reads.
//
// Pruning invariant (the envelope property): the rectangle contains the
// disk, so for every p, r and t
//
//   type_upper_bound(p, r, t)  >= F(p, r)[t]
//   total_upper_bound(p, r)    >= total(F(p, r))
//
// i.e. the envelope dominates any contained disk. A candidate anchor
// whose upper bound already falls short of a released count can therefore
// be rejected with one integer comparison, without ever running the disk
// aggregation — and the rejection is exact: the full test would have
// failed too, so attack outputs are bit-identical with pruning on or off.
// The invariant is verified over random probes in
// tests/kernel_property_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geometry.h"
#include "poi/poi.h"

namespace poiprivacy::poi {

class TileAggregates {
 public:
  /// Bins `pois` into tiles of `tile_km` over `bounds` (POIs outside the
  /// bounds clamp into the edge tiles, preserving the invariant) and
  /// builds one prefix-sum plane per type plus a total plane.
  TileAggregates(std::span<const Poi> pois, std::size_t num_types,
                 geo::BBox bounds, double tile_km = 1.0);

  /// Upper bound on F(p, radius)[type]: type-t POIs in the tile-aligned
  /// rectangle covering disk(p, radius).
  std::int32_t type_upper_bound(geo::Point p, double radius,
                                TypeId type) const noexcept;

  /// Upper bound on total(F(p, radius)): all POIs in the covering
  /// rectangle.
  std::int64_t total_upper_bound(geo::Point p, double radius) const noexcept;

  /// A resolved covering rectangle: candidate-pruning loops probe several
  /// type bounds per candidate, and the Window pays the point-to-tile
  /// arithmetic once instead of per probe.
  class Window {
   public:
    std::int32_t type_bound(TypeId type) const noexcept;
    std::int64_t total_bound() const noexcept;

   private:
    friend class TileAggregates;
    Window() = default;
    const TileAggregates* owner_;
    int x0_, y0_, x1_, y1_;  ///< inclusive tile range
  };
  Window window(geo::Point p, double radius) const noexcept;

  /// Tile coordinates a probe bins into (out-of-bounds probes clamp into
  /// the edge tiles, exactly like the POI binning). Monotone in each
  /// coordinate and defined for every double: ±inf and far-off values
  /// clamp onto their side, NaN lands in tile 0.
  struct Tile {
    int ix, iy;
  };
  Tile tile_of(geo::Point p) const noexcept;

  int nx() const noexcept { return nx_; }
  int ny() const noexcept { return ny_; }

 private:
  struct Rect {
    int x0, y0, x1, y1;  ///< inclusive tile range
  };
  Rect rect_of(geo::Point p, double radius) const noexcept;
  static std::int64_t rect_sum(const std::int32_t* plane, int width,
                               Rect r) noexcept;

  geo::BBox bounds_;
  double inv_tile_km_;  ///< 1 / tile_km: indexing multiplies, never divides
  int nx_ = 0;
  int ny_ = 0;
  std::size_t plane_stride_ = 0;  ///< (nx_+1) * (ny_+1)
  /// Inclusive 2-D prefix sums, one (nx_+1)x(ny_+1) plane per type.
  std::vector<std::int32_t> type_prefix_;
  std::vector<std::int32_t> total_prefix_;  ///< one plane, all types
};

}  // namespace poiprivacy::poi
