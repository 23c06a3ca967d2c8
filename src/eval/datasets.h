// Dataset workbench for the evaluation: builds the two synthetic cities
// and the four user-location datasets the paper evaluates on —
// (a) T-drive taxi locations in Beijing, (b) random locations in Beijing,
// (c) Foursquare check-ins in NYC, (d) random locations in NYC.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "poi/city_model.h"
#include "traj/generators.h"

namespace poiprivacy::eval {

enum class DatasetKind {
  kBeijingTdrive,
  kBeijingRandom,
  kNycFoursquare,
  kNycRandom,
};

constexpr DatasetKind kAllDatasets[] = {
    DatasetKind::kBeijingTdrive,
    DatasetKind::kBeijingRandom,
    DatasetKind::kNycFoursquare,
    DatasetKind::kNycRandom,
};

const char* dataset_name(DatasetKind kind) noexcept;

struct WorkbenchConfig {
  std::uint64_t seed = 42;
  /// Locations per dataset (the paper samples 1,000 per experiment).
  std::size_t locations_per_dataset = 300;
  std::size_t num_taxis = 120;
  std::size_t points_per_taxi = 60;
  std::size_t num_checkin_users = 120;
  std::size_t checkins_per_user = 40;
};

/// Owns the cities, the taxi traces, and the per-dataset location samples.
class Workbench {
 public:
  explicit Workbench(const WorkbenchConfig& config = {});

  const poi::City& beijing() const noexcept { return beijing_; }
  const poi::City& nyc() const noexcept { return nyc_; }

  /// The city a dataset's locations live in.
  const poi::City& city_of(DatasetKind kind) const noexcept;

  const std::vector<geo::Point>& locations(DatasetKind kind) const noexcept;

  /// The underlying Beijing taxi trajectories (for the trajectory attack).
  const std::vector<traj::Trajectory>& taxi_trajectories() const noexcept {
    return taxi_trajectories_;
  }

  const WorkbenchConfig& config() const noexcept { return config_; }

 private:
  WorkbenchConfig config_;
  poi::City beijing_;
  poi::City nyc_;
  std::vector<traj::Trajectory> taxi_trajectories_;
  std::vector<geo::Point> locations_[4];
};

}  // namespace poiprivacy::eval
