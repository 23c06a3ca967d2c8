#include "spatial/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace poiprivacy::spatial {

GridIndex::GridIndex(const std::vector<geo::Point>& points, geo::BBox bounds,
                     double cell_km, std::span<const std::uint32_t> labels)
    : bounds_(bounds), cell_km_(cell_km) {
  assert(cell_km_ > 0.0);
  assert(labels.empty() || labels.size() == points.size());
  nx_ = std::max(1, static_cast<int>(std::ceil(bounds_.width() / cell_km_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(bounds_.height() / cell_km_)));
  const std::size_t num_cells =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  // Counting sort by cell; placing points in ascending id keeps insertion
  // order inside each cell. cell_of is cheap, so the second pass
  // recomputes it rather than holding a per-point cell array.
  const auto cell_index = [this](geo::Point p) {
    const auto [cx, cy] = cell_of(p);
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  };
  cell_start_.assign(num_cells + 1, 0);
  for (const geo::Point& p : points) ++cell_start_[cell_index(p) + 1];
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  std::vector<std::uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
  entries_.resize(points.size());
  for (std::size_t id = 0; id < points.size(); ++id) {
    entries_[next[cell_index(points[id])]++] = {
        points[id], static_cast<std::uint32_t>(id),
        labels.empty() ? 0u : labels[id]};
  }
}

std::pair<int, int> GridIndex::cell_of(geo::Point p) const noexcept {
  // Clamp in floating point before the cast: a far-off, infinite or NaN
  // coordinate would overflow int. NaN fails `>= 0.0` and lands in cell 0.
  // For in-range values this truncates exactly like casting first and
  // clamping the int.
  const auto clamp_cell = [](double f, int n) {
    f = f >= 0.0 ? f : 0.0;
    f = f <= static_cast<double>(n - 1) ? f : static_cast<double>(n - 1);
    return static_cast<int>(f);
  };
  return {clamp_cell((p.x - bounds_.min_x) / cell_km_, nx_),
          clamp_cell((p.y - bounds_.min_y) / cell_km_, ny_)};
}

geo::BBox GridIndex::disk_window(geo::Point center, double radius) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr geo::BBox kEmpty{kInf, kInf, -kInf, -kInf};
  if (!(radius >= 0.0) || std::isnan(center.x) || std::isnan(center.y)) {
    return kEmpty;
  }
  if (radius * radius == kInf) return {-kInf, -kInf, kInf, kInf};
  if (!std::isfinite(center.x) || !std::isfinite(center.y)) return kEmpty;
  const double reach =
      radius + 0x1p-40 * (1.0 + std::fabs(center.x) + std::fabs(center.y) +
                          radius);
  return {center.x - reach, center.y - reach, center.x + reach,
          center.y + reach};
}

std::vector<std::uint32_t> GridIndex::query_disk(geo::Point center,
                                                 double radius) const {
  std::vector<std::uint32_t> out;
  for_each_in_disk(center, radius,
                   [&out](std::uint32_t id, geo::Point) { out.push_back(id); });
  return out;
}

std::size_t GridIndex::count_in_disk(geo::Point center, double radius) const {
  std::size_t n = 0;
  for_each_in_disk(center, radius, [&n](std::uint32_t, geo::Point) { ++n; });
  return n;
}

// The Freq(l, r) hot loop. Compiled in this portable TU (no -mavx2/-mfma),
// so distance_sq is never contracted into an FMA and the predicate rounds
// exactly like every other caller's.
void GridIndex::count_labels_in_disk(geo::Point center, double radius,
                                     std::span<std::int32_t> counts) const {
  const double r_sq = radius * radius;
  std::int32_t* const out = counts.data();
  for_each_row_span(disk_window(center, radius),
                    [&](const Entry* it, const Entry* end) {
                      for (; it != end; ++it) {
                        assert(it->label < counts.size());
                        out[it->label] +=
                            geo::distance_sq(it->pos, center) <= r_sq;
                      }
                    });
}

}  // namespace poiprivacy::spatial
