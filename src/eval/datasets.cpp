#include "eval/datasets.h"

namespace poiprivacy::eval {

const char* dataset_name(DatasetKind kind) noexcept {
  switch (kind) {
    case DatasetKind::kBeijingTdrive:
      return "BJ:T-drive";
    case DatasetKind::kBeijingRandom:
      return "BJ:Random";
    case DatasetKind::kNycFoursquare:
      return "NYC:Foursquare";
    case DatasetKind::kNycRandom:
      return "NYC:Random";
  }
  return "?";
}

namespace {

std::vector<geo::Point> random_locations(const geo::BBox& bounds,
                                         std::size_t count,
                                         common::Rng& rng) {
  std::vector<geo::Point> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({rng.uniform(bounds.min_x, bounds.max_x),
                   rng.uniform(bounds.min_y, bounds.max_y)});
  }
  return out;
}

}  // namespace

Workbench::Workbench(const WorkbenchConfig& config)
    : config_(config),
      beijing_(poi::generate_city(poi::beijing_preset(), config.seed)),
      nyc_(poi::generate_city(poi::nyc_preset(), config.seed + 1)) {
  common::Rng rng(config.seed ^ 0xabcdef1234567890ULL);

  traj::TaxiConfig taxi_config;
  taxi_config.num_taxis = config.num_taxis;
  taxi_config.points_per_taxi = config.points_per_taxi;
  common::Rng taxi_rng = rng.fork();
  taxi_trajectories_ =
      traj::generate_taxi_trajectories(beijing_, taxi_config, taxi_rng);

  traj::CheckinConfig checkin_config;
  checkin_config.num_users = config.num_checkin_users;
  checkin_config.checkins_per_user = config.checkins_per_user;
  common::Rng checkin_rng = rng.fork();
  const std::vector<traj::Trajectory> checkin_trajectories =
      traj::generate_checkins(nyc_, checkin_config, checkin_rng);

  common::Rng sample_rng = rng.fork();
  locations_[0] = traj::sample_locations(
      taxi_trajectories_, config.locations_per_dataset, sample_rng);
  locations_[1] = random_locations(beijing_.db.bounds(),
                                   config.locations_per_dataset, sample_rng);
  locations_[2] = traj::sample_locations(
      checkin_trajectories, config.locations_per_dataset, sample_rng);
  locations_[3] = random_locations(nyc_.db.bounds(),
                                   config.locations_per_dataset, sample_rng);
}

const poi::City& Workbench::city_of(DatasetKind kind) const noexcept {
  switch (kind) {
    case DatasetKind::kBeijingTdrive:
    case DatasetKind::kBeijingRandom:
      return beijing_;
    case DatasetKind::kNycFoursquare:
    case DatasetKind::kNycRandom:
      return nyc_;
  }
  return beijing_;
}

const std::vector<geo::Point>& Workbench::locations(
    DatasetKind kind) const noexcept {
  return locations_[static_cast<int>(kind)];
}

}  // namespace poiprivacy::eval
