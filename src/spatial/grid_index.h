// Uniform grid index over 2-D points for fast circular range queries.
//
// This is the workhorse behind the GSP's Query(l, r) and Freq(l, r)
// operations: POI sets per city are static, so a bucketed grid beats tree
// structures both in build time and in query constant factors.
//
// Layout (CSR): every point is stored once, in cell order — row-major
// cells, insertion order inside a cell — next to its original id and a
// uint32 label. cell_start_ holds nx*ny+1 offsets, so the cells cx0..cx1
// of grid row cy are the one contiguous entry range
// [cell_start_[cy*nx+cx0], cell_start_[cy*nx+cx1+1]). A disk query is one
// flat loop per grid row of the disk's window (disk_window), with no
// per-cell setup.
//
// Membership is decided by the predicate `distance_sq(p, center) <=
// radius * radius` alone: the window never cuts off a point that passes
// it, so every query equals a brute-force scan with that predicate. A
// negative or NaN radius matches nothing.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/geometry.h"

namespace poiprivacy::spatial {

class GridIndex {
 public:
  /// Builds the index over `points`. `cell_km` chooses the bucket size;
  /// values near the most common query radius work well. `labels`, when
  /// non-empty, gives one label per point (same length as `points`) for
  /// count_labels_in_disk; without it every point has label 0.
  GridIndex(const std::vector<geo::Point>& points, geo::BBox bounds,
            double cell_km = 0.5, std::span<const std::uint32_t> labels = {});

  /// Ids (indices into the original vector) of all points within `radius`
  /// of `center` (inclusive boundary), in visiting order: grid rows of the
  /// disk's window bottom to top, cells left to right within a
  /// row, and ascending id within a cell. Callers that bucket the ids
  /// (attack/fine_grained.cpp groups them by type) rely on this order.
  std::vector<std::uint32_t> query_disk(geo::Point center,
                                        double radius) const;

  /// Calls `fn(id, point)` for each point within the disk, in
  /// query_disk's order.
  template <typename Fn>
  void for_each_in_disk(geo::Point center, double radius, Fn&& fn) const {
    const double r_sq = radius * radius;
    for_each_row_span(disk_window(center, radius),
                      [&](const Entry* it, const Entry* end) {
                        for (; it != end; ++it) {
                          if (geo::distance_sq(it->pos, center) <= r_sq) {
                            fn(it->id, it->pos);
                          }
                        }
                      });
  }

  /// Number of points within the disk, without materializing ids.
  std::size_t count_in_disk(geo::Point center, double radius) const;

  /// Adds 1 to counts[label] for each point within the disk, without a
  /// branch per point. The inclusion test is the same
  /// `distance_sq(p, center) <= radius * radius` expression as
  /// for_each_in_disk, so the counts agree bit for bit with a per-point
  /// scan. Every label must be < counts.size(); counts are accumulated,
  /// not reset.
  void count_labels_in_disk(geo::Point center, double radius,
                            std::span<std::int32_t> counts) const;

  std::size_t size() const noexcept { return entries_.size(); }
  const geo::BBox& bounds() const noexcept { return bounds_; }

  /// One indexed point, as the row spans hand it out (read-only).
  struct Entry {
    geo::Point pos;
    std::uint32_t id;
    std::uint32_t label;
  };

  /// The box whose grid cells a disk query scans: the disk's bounding
  /// square widened on every side by the slack
  /// 2^-40 * (1 + |center.x| + |center.y| + radius). A point with
  /// distance_sq(p, center) <= radius * radius < inf lies within
  /// radius * (1 + 2^-51) of the centre on each axis (plus an underflow
  /// term far below 2^-40), and the window's own rounding is below
  /// 2^-52 * (|center| + radius); the slack dominates both, and cell
  /// numbers are monotone in the coordinate, so the window never cuts off
  /// a point the predicate accepts. The special cases follow the
  /// predicate too: a negative or NaN radius, or a NaN centre, gives an
  /// empty box (min > max); radius * radius == inf accepts every finite
  /// distance, so the box is the whole plane; an infinite centre with a
  /// finite radius * radius accepts nothing, so its box is empty.
  static geo::BBox disk_window(geo::Point center, double radius) noexcept;

  /// Calls `span(begin, end)` once per grid row of the cells that
  /// `window` overlaps, bottom row first, with that row's contiguous
  /// entry range (cells left to right, ascending id within a cell). A
  /// window with min > max or a NaN bound visits nothing; infinite bounds
  /// clamp to the grid's edge cells.
  template <typename SpanFn>
  void for_each_row_span(const geo::BBox& window, SpanFn&& span) const {
    if (!(window.min_x <= window.max_x && window.min_y <= window.max_y)) {
      return;
    }
    const auto [cx0, cy0] = cell_of({window.min_x, window.min_y});
    const auto [cx1, cy1] = cell_of({window.max_x, window.max_y});
    const Entry* const base = entries_.data();
    for (int cy = cy0; cy <= cy1; ++cy) {
      const std::size_t row = static_cast<std::size_t>(cy) *
                              static_cast<std::size_t>(nx_);
      span(base + cell_start_[row + static_cast<std::size_t>(cx0)],
           base + cell_start_[row + static_cast<std::size_t>(cx1) + 1]);
    }
  }

 private:
  std::pair<int, int> cell_of(geo::Point p) const noexcept;

  geo::BBox bounds_;
  double cell_km_;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<Entry> entries_;  ///< cell order
  std::vector<std::uint32_t> cell_start_;  ///< nx*ny+1 offsets into entries_
};

}  // namespace poiprivacy::spatial
