#include "mia/stream_release.h"

#include <algorithm>
#include <stdexcept>

#include "dp/mechanisms.h"

namespace poiprivacy::mia {

AggregateStreamReleaser::AggregateStreamReleaser(const UserTraces& traces,
                                                 StreamConfig config,
                                                 std::size_t roi_tiles,
                                                 std::size_t roi_epochs)
    : traces_(&traces), config_(config) {
  if (config_.window_epochs == 0 || config_.stride == 0) {
    throw std::invalid_argument(
        "stream release: window_epochs and stride must be positive");
  }
  if (roi_tiles == 0 || roi_epochs == 0 || roi_epochs > traces.epochs()) {
    throw std::invalid_argument("stream release: invalid ROI parameters");
  }
  // Population-wide visit counts over the warm-up period; the top tiles
  // (count desc, id asc) become the released ROI.
  std::vector<std::int64_t> totals(traces.num_tiles(), 0);
  for (std::size_t u = 0; u < traces.num_users(); ++u) {
    for (std::size_t e = 0; e < roi_epochs; ++e) {
      for (const TileId tile : traces.visits(u, e)) {
        ++totals[static_cast<std::size_t>(tile)];
      }
    }
  }
  std::vector<TileId> order(traces.num_tiles());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TileId>(i);
  }
  std::sort(order.begin(), order.end(), [&](TileId a, TileId b) {
    const std::int64_t ca = totals[static_cast<std::size_t>(a)];
    const std::int64_t cb = totals[static_cast<std::size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  roi_.assign(order.begin(),
              order.begin() + std::min(roi_tiles, order.size()));
  roi_index_.assign(traces.num_tiles(), -1);
  for (std::size_t slot = 0; slot < roi_.size(); ++slot) {
    roi_index_[static_cast<std::size_t>(roi_[slot])] =
        static_cast<std::int32_t>(slot);
  }
}

std::size_t AggregateStreamReleaser::epochs() const noexcept {
  return traces_->epochs();
}

std::size_t AggregateStreamReleaser::num_windows(std::size_t begin,
                                                 std::size_t end) const
    noexcept {
  if (end < begin + config_.window_epochs) return 0;
  return (end - begin - config_.window_epochs) / config_.stride + 1;
}

double AggregateStreamReleaser::sensitivity() const noexcept {
  return static_cast<double>(traces_->visits_per_epoch()) *
         static_cast<double>(config_.window_epochs);
}

void AggregateStreamReleaser::release(std::span<const std::uint32_t> group,
                                      std::size_t begin, std::size_t end,
                                      common::Rng& rng, poi::FreqArena& out,
                                      dp::Ledger* ledger) const {
  if (end > traces_->epochs()) {
    throw std::invalid_argument("stream release: epoch range out of bounds");
  }
  const std::size_t windows = num_windows(begin, end);
  out.reset(windows, roi_.size());

  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t start = begin + w * config_.stride;
    std::span<std::int32_t> row = out.row(w);
    for (const std::uint32_t user : group) {
      for (std::size_t e = start; e < start + config_.window_epochs; ++e) {
        for (const TileId tile : traces_->visits(user, e)) {
          const std::int32_t slot = roi_index_[static_cast<std::size_t>(tile)];
          if (slot >= 0) ++row[static_cast<std::size_t>(slot)];
        }
      }
    }
    if (config_.epsilon > 0.0) {
      if (ledger != nullptr) {
        ledger->charge({config_.epsilon, 0.0}, start);
      }
      const dp::LaplaceMechanism laplace(config_.epsilon, sensitivity());
      for (std::int32_t& cell : row) {
        const double noised =
            laplace.perturb(static_cast<double>(cell), rng);
        cell = dp::noised_count(noised);
      }
    }
  }
}

}  // namespace poiprivacy::mia
