#include "poi/tile_aggregates.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace poiprivacy::poi {

TileAggregates::TileAggregates(std::span<const Poi> pois,
                               std::size_t num_types, geo::BBox bounds,
                               double tile_km)
    : bounds_(bounds), inv_tile_km_(1.0 / tile_km) {
  assert(tile_km > 0.0);
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds.width() / tile_km)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds.height() / tile_km)));
  const int w = nx_ + 1;
  const int h = ny_ + 1;
  plane_stride_ = static_cast<std::size_t>(w) * h;

  // Bin POIs into per-type tile counts (stored straight into the prefix
  // buffers at offset (iy+1, ix+1), then summed in place). Binning MUST
  // use the same x -> tile formula as rect_of: both go through tile_of,
  // which is monotone in x, so any POI within `radius` of a probe lands
  // inside the probe's rect even when multiply-by-inverse rounds
  // differently than an exact divide.
  type_prefix_.assign(plane_stride_ * num_types, 0);
  total_prefix_.assign(plane_stride_, 0);
  for (const Poi& p : pois) {
    assert(p.type < num_types);
    const auto [ix, iy] = tile_of(p.pos);
    const std::size_t at = static_cast<std::size_t>(iy + 1) * w + (ix + 1);
    ++type_prefix_[p.type * plane_stride_ + at];
    ++total_prefix_[at];
  }

  // In-place inclusive 2-D prefix sums: row pass then column pass. Row 0
  // and column 0 stay zero so rect_sum never needs boundary branches.
  const auto prefix_plane = [w, h](std::int32_t* plane) {
    for (int y = 1; y < h; ++y) {
      std::int32_t* row = plane + static_cast<std::size_t>(y) * w;
      for (int x = 1; x < w; ++x) row[x] += row[x - 1];
    }
    for (int y = 2; y < h; ++y) {
      std::int32_t* row = plane + static_cast<std::size_t>(y) * w;
      const std::int32_t* prev = row - w;
      for (int x = 1; x < w; ++x) row[x] += prev[x];
    }
  };
  for (std::size_t t = 0; t < num_types; ++t) {
    prefix_plane(type_prefix_.data() + t * plane_stride_);
  }
  prefix_plane(total_prefix_.data());
}

TileAggregates::Rect TileAggregates::rect_of(geo::Point p,
                                             double radius) const noexcept {
  const Tile lo = tile_of({p.x - radius, p.y - radius});
  const Tile hi = tile_of({p.x + radius, p.y + radius});
  return {lo.ix, lo.iy, hi.ix, hi.iy};
}

std::int64_t TileAggregates::rect_sum(const std::int32_t* plane, int width,
                                      Rect r) noexcept {
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t top = static_cast<std::size_t>(r.y0) * w;
  const std::size_t bottom = static_cast<std::size_t>(r.y1 + 1) * w;
  return static_cast<std::int64_t>(plane[bottom + r.x1 + 1]) -
         plane[top + r.x1 + 1] - plane[bottom + r.x0] + plane[top + r.x0];
}

TileAggregates::Window TileAggregates::window(geo::Point p,
                                              double radius) const noexcept {
  const Rect r = rect_of(p, radius);
  Window w;
  w.owner_ = this;
  w.x0_ = r.x0;
  w.y0_ = r.y0;
  w.x1_ = r.x1;
  w.y1_ = r.y1;
  return w;
}

std::int32_t TileAggregates::Window::type_bound(TypeId type) const noexcept {
  return static_cast<std::int32_t>(
      rect_sum(owner_->type_prefix_.data() + type * owner_->plane_stride_,
               owner_->nx_ + 1, {x0_, y0_, x1_, y1_}));
}

std::int64_t TileAggregates::Window::total_bound() const noexcept {
  return rect_sum(owner_->total_prefix_.data(), owner_->nx_ + 1,
                  {x0_, y0_, x1_, y1_});
}

TileAggregates::Tile TileAggregates::tile_of(geo::Point p) const noexcept {
  // Clamp in floating point before the cast: a far-off, infinite or NaN
  // coordinate would overflow int. NaN fails `>= 0.0` and lands in tile 0.
  // For in-range values this truncates exactly like casting first and
  // clamping the int.
  const auto clamp_tile = [](double f, int n) {
    f = f >= 0.0 ? f : 0.0;
    f = f <= static_cast<double>(n - 1) ? f : static_cast<double>(n - 1);
    return static_cast<int>(f);
  };
  return {clamp_tile((p.x - bounds_.min_x) * inv_tile_km_, nx_),
          clamp_tile((p.y - bounds_.min_y) * inv_tile_km_, ny_)};
}

std::int32_t TileAggregates::type_upper_bound(geo::Point p, double radius,
                                              TypeId type) const noexcept {
  return window(p, radius).type_bound(type);
}

std::int64_t TileAggregates::total_upper_bound(geo::Point p,
                                               double radius) const noexcept {
  return window(p, radius).total_bound();
}

}  // namespace poiprivacy::poi
