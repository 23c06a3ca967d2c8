#include "attack/linkage_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace poiprivacy::attack {
namespace {

constexpr std::size_t words_for(std::size_t n) noexcept {
  return (n + 63) / 64;
}

void set_bit(std::span<std::uint64_t> words, std::size_t i) noexcept {
  words[i >> 6] |= std::uint64_t{1} << (i & 63);
}

bool test_bit(std::span<const std::uint64_t> words, std::size_t i) noexcept {
  return (words[i >> 6] >> (i & 63)) & 1;
}

/// Sets bits [0, n) and clears any tail bits of the last word, so that
/// popcounts and all-zero checks over whole words stay exact.
void set_first_bits(std::span<std::uint64_t> words, std::size_t n) noexcept {
  std::fill(words.begin(), words.end(), std::uint64_t{0});
  for (std::size_t w = 0; w < n / 64; ++w) words[w] = ~std::uint64_t{0};
  if (n % 64 != 0) words[n / 64] = (std::uint64_t{1} << (n % 64)) - 1;
}

bool all_zero(std::span<const std::uint64_t> words) noexcept {
  for (const std::uint64_t w : words) {
    if (w != 0) return false;
  }
  return true;
}

/// Squared distance bounds from p to the bbox. Every subtraction and
/// square below is the same shape as geo::distance_sq's, and IEEE
/// rounding is monotone, so for any member q of the box
///   min_sq <= distance_sq(p, q) <= max_sq
/// holds bit-rigorously — whole-bucket accept/reject decisions agree
/// with the per-candidate squared test exactly.
struct SqBounds {
  double min_sq, max_sq;
};

SqBounds bbox_distance_sq_bounds(geo::Point p, const geo::BBox& b) noexcept {
  const double dx_lo = std::max(0.0, std::max(b.min_x - p.x, p.x - b.max_x));
  const double dy_lo = std::max(0.0, std::max(b.min_y - p.y, p.y - b.max_y));
  const double dx_hi = std::max(b.max_x - p.x, p.x - b.min_x);
  const double dy_hi = std::max(b.max_y - p.y, p.y - b.min_y);
  return {dx_lo * dx_lo + dy_lo * dy_lo, dx_hi * dx_hi + dy_hi * dy_hi};
}

/// Largest |hi| for which a query visits only its reach span. The
/// one-tile margin needs hi² finite and a whole tile to stay visible
/// next to hi after rounding. Past this bound, far beyond any distance
/// on Earth, a query visits every bucket: there an overflowing hi² can
/// make the squared test accept candidates at any distance.
constexpr double kMaxLocalReachKm = 1e6;

}  // namespace

// ---- CandidateBlockIndex ----------------------------------------------------

void CandidateBlockIndex::build(const AttackContext& ctx,
                                std::span<const poi::PoiId> candidates) {
  entries_.clear();
  buckets_.clear();
  sort_scratch_.clear();

  tiles_ = &ctx.tiles();
  const std::int32_t nx = tiles_->nx();
  row_start_.assign(static_cast<std::size_t>(tiles_->ny()) + 1, 0);
  sort_scratch_.reserve(candidates.size());
  for (std::uint32_t i = 0; i < candidates.size(); ++i) {
    const poi::TileAggregates::Tile t =
        tiles_->tile_of(ctx.db().poi(candidates[i]).pos);
    sort_scratch_.emplace_back(t.iy * nx + t.ix, i);
  }
  // Pair order (tile id, candidate index) is a total order, so the sort
  // is deterministic regardless of the sort algorithm's stability.
  std::sort(sort_scratch_.begin(), sort_scratch_.end());

  entries_.reserve(candidates.size());
  for (std::size_t k = 0; k < sort_scratch_.size(); ++k) {
    const auto [tile, index] = sort_scratch_[k];
    const geo::Point pos = ctx.db().poi(candidates[index]).pos;
    if (buckets_.empty() || sort_scratch_[k - 1].first != tile) {
      buckets_.push_back(Bucket{static_cast<std::uint32_t>(k),
                                static_cast<std::uint32_t>(k), tile % nx,
                                geo::BBox{pos.x, pos.y, pos.x, pos.y}});
      ++row_start_[tile / nx + 1];
    }
    Bucket& bucket = buckets_.back();
    bucket.end = static_cast<std::uint32_t>(k + 1);
    bucket.bbox.min_x = std::min(bucket.bbox.min_x, pos.x);
    bucket.bbox.min_y = std::min(bucket.bbox.min_y, pos.y);
    bucket.bbox.max_x = std::max(bucket.bbox.max_x, pos.x);
    bucket.bbox.max_y = std::max(bucket.bbox.max_y, pos.y);
    entries_.push_back(Entry{index, pos});
  }
  for (std::size_t iy = 1; iy < row_start_.size(); ++iy) {
    row_start_[iy] += row_start_[iy - 1];
  }
}

CandidateBlockIndex::TileSpan CandidateBlockIndex::reach_span(
    geo::Point p, double hi_km) const noexcept {
  const int nx = tiles_->nx();
  const int ny = tiles_->ny();
  // The squared test sees only hi², so a negative hi reaches |hi|.
  const double reach = std::abs(hi_km);
  if (!(reach <= kMaxLocalReachKm)) return {0, 0, nx - 1, ny - 1};
  const poi::TileAggregates::Tile lo =
      tiles_->tile_of({p.x - reach, p.y - reach});
  const poi::TileAggregates::Tile hi =
      tiles_->tile_of({p.x + reach, p.y + reach});
  return {std::max(0, lo.ix - 1), std::max(0, lo.iy - 1),
          std::min(nx - 1, hi.ix + 1), std::min(ny - 1, hi.iy + 1)};
}

template <typename Visit>
bool CandidateBlockIndex::any_reachable_bucket(geo::Point p, double hi_km,
                                               Visit&& visit) const noexcept {
  if (buckets_.empty()) return false;
  const TileSpan span = reach_span(p, hi_km);
  for (int iy = span.y0; iy <= span.y1; ++iy) {
    const Bucket* bucket = buckets_.data() + row_start_[iy];
    const Bucket* const row_end = buckets_.data() + row_start_[iy + 1];
    while (bucket != row_end && bucket->ix < span.x0) ++bucket;
    for (; bucket != row_end && bucket->ix <= span.x1; ++bucket) {
      if (visit(*bucket)) return true;
    }
  }
  return false;
}

bool CandidateBlockIndex::any_in_annulus(
    geo::Point p, double lo_km, double hi_km,
    std::span<const std::uint64_t> alive) const noexcept {
  const double lo_sq = lo_km * lo_km;
  const double hi_sq = hi_km * hi_km;
  return any_reachable_bucket(p, hi_km, [&](const Bucket& bucket) {
    const SqBounds b = bbox_distance_sq_bounds(p, bucket.bbox);
    if (b.min_sq > hi_sq || b.max_sq < lo_sq) return false;  // whole tile out
    const bool whole_tile_in = b.min_sq >= lo_sq && b.max_sq <= hi_sq;
    for (std::uint32_t k = bucket.begin; k < bucket.end; ++k) {
      const Entry& e = entries_[k];
      if (!alive.empty() && !test_bit(alive, e.index)) continue;
      if (whole_tile_in) return true;
      const double d_sq = geo::distance_sq(p, e.pos);
      if (d_sq >= lo_sq && d_sq <= hi_sq) return true;
    }
    return false;
  });
}

void CandidateBlockIndex::annulus_mask_into(
    geo::Point p, double lo_km, double hi_km,
    std::span<std::uint64_t> out) const noexcept {
  const double lo_sq = lo_km * lo_km;
  const double hi_sq = hi_km * hi_km;
  any_reachable_bucket(p, hi_km, [&](const Bucket& bucket) {
    const SqBounds b = bbox_distance_sq_bounds(p, bucket.bbox);
    if (b.min_sq > hi_sq || b.max_sq < lo_sq) return false;  // whole tile out
    if (b.min_sq >= lo_sq && b.max_sq <= hi_sq) {            // whole tile in
      for (std::uint32_t k = bucket.begin; k < bucket.end; ++k) {
        set_bit(out, entries_[k].index);
      }
      return false;
    }
    for (std::uint32_t k = bucket.begin; k < bucket.end; ++k) {
      const double d_sq = geo::distance_sq(p, entries_[k].pos);
      if (d_sq >= lo_sq && d_sq <= hi_sq) set_bit(out, entries_[k].index);
    }
    return false;
  });
}

// ---- solve_chain ------------------------------------------------------------

void LinkageEngine::solve_chain(
    std::span<const std::vector<poi::PoiId>> layers,
    std::span<const double> step_km,
    std::vector<poi::PoiId>& surviving_first) const {
  surviving_first.clear();
  if (layers.empty()) return;

  // Packed alive masks, one per layer, initially all-true: alive[t] bit i
  // means candidate i of layer t can reach the end of the chain.
  std::vector<std::vector<std::uint64_t>> alive(layers.size());
  for (std::size_t t = 0; t < layers.size(); ++t) {
    alive[t].resize(words_for(layers[t].size()));
    set_first_bits(alive[t], layers[t].size());
  }

  CandidateBlockIndex index;
  for (std::size_t t = layers.size() - 1; t-- > 0;) {
    const std::vector<poi::PoiId>& here = layers[t];
    const std::vector<poi::PoiId>& next = layers[t + 1];
    // An empty layer carries no evidence; the step is transparent.
    if (here.empty() || next.empty()) continue;
    // Already-unique layer: whatever this step decides, the transparent
    // all-dead fallback below would resurrect a lone candidate anyway, so
    // bit 0 stays set either way — skip the whole step.
    if (here.size() == 1) continue;

    // |d - estimate| <= slack, tested in squared form against the block
    // index (d >= 0, so the annulus [max(0, est-slack), est+slack] is the
    // same predicate without the square root per pair).
    const double estimate = step_km[t];
    const double lo = std::max(0.0, estimate - slack_);
    const double hi = estimate + slack_;
    index.build(ctx_, next);

    bool any_alive = false;
    for (std::size_t i = 0; i < here.size(); ++i) {
      const geo::Point pa = ctx_.db().poi(here[i]).pos;
      if (index.any_in_annulus(pa, lo, hi, alive[t + 1])) {
        any_alive = true;
      } else {
        alive[t][i >> 6] &= ~(std::uint64_t{1} << (i & 63));
      }
    }
    // A step that eliminates every candidate says more about the
    // regressor than about the user; treat it as transparent, matching
    // the pairwise attack's empty-filter fallback.
    if (!any_alive) set_first_bits(alive[t], here.size());
  }

  for (std::size_t i = 0; i < layers[0].size(); ++i) {
    if (test_bit(alive[0], i)) surviving_first.push_back(layers[0][i]);
  }
}

// ---- Tracker ----------------------------------------------------------------

void LinkageEngine::Tracker::reset() noexcept {
  survivors_.clear();
  frontier_.clear();
  words_ = 0;
  bits_.clear();
  union_.clear();
  seen_ = 0;
  last_layer_size_ = 0;
  started_ = false;
}

void LinkageEngine::Tracker::remember_release(
    std::span<const std::int32_t> released, traj::TimeSec time) {
  prev_freq_.assign(released.begin(), released.end());
  prev_time_ = time;
}

void LinkageEngine::Tracker::start_stream(
    std::span<const std::int32_t> released, traj::TimeSec time) {
  started_ = true;
  survivors_.assign(layer_.candidates.begin(), layer_.candidates.end());
  frontier_.assign(layer_.candidates.begin(), layer_.candidates.end());
  const std::size_t n = survivors_.size();
  words_ = words_for(n);
  // Identity frontier: survivor i reaches exactly itself.
  bits_.assign(n * words_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    set_bit(std::span(bits_).subspan(i * words_, words_), i);
  }
  union_.resize(words_);
  set_first_bits(union_, n);
  remember_release(released, time);
}

std::size_t LinkageEngine::Tracker::observe(
    std::span<const std::int32_t> released, traj::TimeSec time) {
  engine_->layer_into(released, reid_scratch_, layer_);
  last_layer_size_ = layer_.candidates.size();
  ++seen_;

  if (!started_) {
    // The first release defines the linkage target. An empty first layer
    // leaves the tracker inert: there is nothing to link later evidence
    // back to.
    start_stream(released, time);
    return survivors_.size();
  }
  // A lone survivor is final: a step that would kill it is transparent,
  // so neither the step estimate nor the fold can change it.
  if (survivors_.size() <= 1) return survivors_.size();
  if (layer_.candidates.empty()) {
    // No evidence in this release; the stream stays anchored at the last
    // informative one so the next step estimate spans the gap.
    return survivors_.size();
  }

  const double estimate = engine_->estimate_step_km(
      prev_freq_, released, prev_time_, time, features_);
  const double lo = std::max(0.0, estimate - engine_->slack_km());
  const double hi = estimate + engine_->slack_km();

  index_.build(engine_->context(), layer_.candidates);
  const std::size_t new_n = layer_.candidates.size();
  const std::size_t new_words = words_for(new_n);

  // One annulus reach row per alive frontier candidate (dead ones are in
  // no survivor's row, so their rows are never read).
  reach_.assign(frontier_.size() * new_words, 0);
  for (std::size_t f = 0; f < frontier_.size(); ++f) {
    if (!test_bit(union_, f)) continue;
    index_.annulus_mask_into(
        engine_->db().poi(frontier_[f]).pos, lo, hi,
        std::span(reach_).subspan(f * new_words, new_words));
  }

  // Fold: survivor s reaches new-layer candidate j iff some candidate in
  // s's current frontier row reaches j.
  next_bits_.assign(survivors_.size() * new_words, 0);
  std::size_t alive_count = 0;
  for (std::size_t s = 0; s < survivors_.size(); ++s) {
    const std::span<const std::uint64_t> row(bits_.data() + s * words_,
                                             words_);
    const std::span<std::uint64_t> out(next_bits_.data() + s * new_words,
                                       new_words);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t word = row[w];
      while (word != 0) {
        const std::size_t f = w * 64 + std::countr_zero(word);
        word &= word - 1;
        const std::uint64_t* reach_row = reach_.data() + f * new_words;
        for (std::size_t v = 0; v < new_words; ++v) out[v] |= reach_row[v];
      }
    }
    alive_count += !all_zero(out);
  }

  if (alive_count == 0) {
    // Same rationale as the chain fallback: a step that would kill every
    // survivor is evidence against the regressor, not the survivors.
    // Keep them all and restart the frontier from the whole new layer.
    frontier_.assign(layer_.candidates.begin(), layer_.candidates.end());
    words_ = new_words;
    bits_.assign(survivors_.size() * new_words, 0);
    for (std::size_t s = 0; s < survivors_.size(); ++s) {
      set_first_bits(std::span(bits_).subspan(s * new_words, new_words),
                     new_n);
    }
    union_.resize(new_words);
    set_first_bits(union_, new_n);
    remember_release(released, time);
    return survivors_.size();
  }

  // Compact dead survivors out permanently (monotone shrink) and rebase
  // the frontier onto the new layer.
  union_.assign(new_words, 0);
  bits_.resize(std::max(bits_.size(), alive_count * new_words));
  std::size_t w_out = 0;
  for (std::size_t s = 0; s < survivors_.size(); ++s) {
    const std::span<const std::uint64_t> row(next_bits_.data() + s * new_words,
                                             new_words);
    if (all_zero(row)) continue;
    survivors_[w_out] = survivors_[s];
    for (std::size_t v = 0; v < new_words; ++v) {
      bits_[w_out * new_words + v] = row[v];
      union_[v] |= row[v];
    }
    ++w_out;
  }
  survivors_.resize(w_out);
  bits_.resize(w_out * new_words);
  frontier_.assign(layer_.candidates.begin(), layer_.candidates.end());
  words_ = new_words;
  remember_release(released, time);
  return survivors_.size();
}

}  // namespace poiprivacy::attack
