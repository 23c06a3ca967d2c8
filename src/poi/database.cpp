#include "poi/database.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace poiprivacy::poi {

// Anchor aggregates and type blocks in one table per distinct radius
// (keyed by the radius's bit pattern): |POIs| entries indexed by POI id
// plus |types| indexed by type id, all under one mutex. Entries are
// computed outside the lock and never evicted: the key space is
// (|POIs| + |types|) x |query radii in a run|, and the attacks probe the
// same few radii thousands of times each.
struct PoiDatabase::AnchorCache {
  struct Table {
    std::vector<std::unique_ptr<const AnchorAggregate>> aggregates;
    std::vector<std::unique_ptr<const TypeBlock>> blocks;
  };

  AnchorCache(std::size_t num_pois, std::size_t num_types)
      : num_pois(num_pois), num_types(num_types) {}

  // The entry `member`[index] of the radius's table, computed on first
  // use outside the lock. On a concurrent double-compute the thread that
  // stores second drops its copy and counts a hit, so misses stay equal
  // to the number of distinct keys no matter the interleaving. `entry`
  // stays valid across the unlocked compute: map nodes do not move and a
  // table's vectors are never resized after they are made.
  template <typename T, typename Compute>
  const T& get_or_compute(std::uint64_t radius_bits,
                          std::vector<std::unique_ptr<const T>> Table::*member,
                          std::size_t index, Compute&& compute) {
    std::unique_lock<std::mutex> lock(mu);
    auto [it, added] = tables.try_emplace(radius_bits);
    if (added) {
      it->second.aggregates.resize(num_pois);
      it->second.blocks.resize(num_types);
    }
    std::unique_ptr<const T>& entry = (it->second.*member)[index];
    if (entry == nullptr) {
      lock.unlock();
      std::unique_ptr<const T> computed = compute();
      lock.lock();
      if (entry == nullptr) {
        entry = std::move(computed);
        ++stats.misses;
        return *entry;
      }
    }
    ++stats.hits;
    return *entry;
  }

  const std::size_t num_pois;
  const std::size_t num_types;
  std::mutex mu;
  std::unordered_map<std::uint64_t, Table> tables;  ///< guarded by mu
  AnchorCacheStats stats;                           ///< guarded by mu
};

// Lazily built tile aggregates; the once_flag lives on the heap so the
// database stays movable.
struct PoiDatabase::TileHolder {
  std::once_flag once;
  std::unique_ptr<TileAggregates> tiles;
};

namespace {

std::vector<geo::Point> positions_of(const std::vector<Poi>& pois) {
  std::vector<geo::Point> out;
  out.reserve(pois.size());
  for (const Poi& p : pois) out.push_back(p.pos);
  return out;
}

std::vector<std::uint32_t> types_of(const std::vector<Poi>& pois) {
  std::vector<std::uint32_t> out;
  out.reserve(pois.size());
  for (const Poi& p : pois) out.push_back(p.type);
  return out;
}

}  // namespace

PoiDatabase::PoiDatabase(std::string city_name, std::vector<Poi> pois,
                         PoiTypeRegistry types, geo::BBox bounds)
    : city_name_(std::move(city_name)),
      pois_(std::move(pois)),
      types_(std::move(types)),
      bounds_(bounds),
      index_(positions_of(pois_), bounds, 0.5, types_of(pois_)),
      anchor_cache_(
          std::make_unique<AnchorCache>(pois_.size(), types_.size())),
      tile_holder_(std::make_unique<TileHolder>()) {
  city_freq_.assign(types_.size(), 0);
  by_type_.resize(types_.size());
  for (PoiId i = 0; i < pois_.size(); ++i) {
    assert(pois_[i].id == i && "POI ids must be dense indices");
    assert(pois_[i].type < types_.size());
    ++city_freq_[pois_[i].type];
    by_type_[pois_[i].type].push_back(i);
  }
  // Infrequency rank: rarest type gets rank 1; ties by type id.
  std::vector<TypeId> order(types_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](TypeId a, TypeId b) {
    if (city_freq_[a] != city_freq_[b]) return city_freq_[a] < city_freq_[b];
    return a < b;
  });
  rank_.assign(types_.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[order[i]] = static_cast<int>(i) + 1;
  }
  rare_type_count_ =
      static_cast<int>(types_with_city_freq_at_most(kRareCityFreq).size());
}

PoiDatabase::~PoiDatabase() = default;
PoiDatabase::PoiDatabase(PoiDatabase&&) noexcept = default;
PoiDatabase& PoiDatabase::operator=(PoiDatabase&&) noexcept = default;

std::vector<PoiId> PoiDatabase::query(geo::Point center, double radius) const {
  return index_.query_disk(center, radius);
}

const AnchorAggregate& PoiDatabase::anchor_aggregate(PoiId id,
                                                     double radius) const {
  if (id >= pois_.size()) {
    throw std::out_of_range("PoiDatabase::anchor_aggregate: POI id " +
                            std::to_string(id) + " out of range");
  }
  return anchor_cache_->get_or_compute(
      std::bit_cast<std::uint64_t>(radius), &AnchorCache::Table::aggregates,
      id, [&] {
        auto computed = std::make_unique<AnchorAggregate>();
        computed->freq = freq(pois_[id].pos, radius);
        computed->fp.resize(fingerprint_words(computed->freq.size()));
        pack_fingerprint(computed->freq, computed->fp);
        return computed;
      });
}

const TypeBlock& PoiDatabase::type_block(TypeId type, double radius) const {
  if (type >= types_.size()) {
    throw std::out_of_range("PoiDatabase::type_block: type " +
                            std::to_string(type) + " out of range");
  }
  return anchor_cache_->get_or_compute(
      std::bit_cast<std::uint64_t>(radius), &AnchorCache::Table::blocks,
      type, [&] {
        // Each POI's row is scattered into its column; the pad columns
        // stay 0.
        const std::vector<PoiId>& ids = by_type_[type];
        const std::size_t m = types_.size();
        auto computed = std::make_unique<TypeBlock>();
        computed->count = ids.size();
        computed->stride = (ids.size() + 7) / 8 * 8;
        computed->counts.assign(m * computed->stride, 0);
        FrequencyVector row;
        for (std::size_t j = 0; j < ids.size(); ++j) {
          freq_into(pois_[ids[j]].pos, radius, row);
          std::int32_t* column = computed->counts.data() + j;
          for (std::size_t t = 0; t < m; ++t) {
            column[t * computed->stride] = row[t];
          }
        }
        return computed;
      });
}

AnchorCacheStats PoiDatabase::anchor_cache_stats() const noexcept {
  const std::lock_guard<std::mutex> lock(anchor_cache_->mu);
  return anchor_cache_->stats;
}

FrequencyVector PoiDatabase::freq(geo::Point center, double radius) const {
  FrequencyVector f;
  freq_into(center, radius, f);
  return f;
}

// Both Freq entry points bottom out in the grid's branchless label-count
// scan: the index stores each POI's type next to its position, so no
// per-hit pois_[id].type gather remains.
void PoiDatabase::freq_into(geo::Point center, double radius,
                            FrequencyVector& out) const {
  out.assign(types_.size(), 0);
  index_.count_labels_in_disk(center, radius, out);
}

void PoiDatabase::freq_batch(std::span<const geo::Point> centers, double radius,
                             FreqArena& arena) const {
  arena.reset(centers.size(), types_.size());
  for (std::size_t i = 0; i < centers.size(); ++i) {
    index_.count_labels_in_disk(centers[i], radius, arena.row(i));
  }
}

std::size_t PoiDatabase::max_fold_centers() const noexcept {
  if (pois_.empty()) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) /
         pois_.size();
}

namespace {

/// The most centres one candidate-major pass tests: the per-thread hit
/// matrix is |types| x lanes int32s (70 KB at 272 types), and more
/// centres run as several passes.
constexpr std::size_t kMaxLanes = 64;

/// Per-thread operands of the candidate-major pass. hits and touched stay
/// all zero between calls (the kernel clears what it sets), so they only
/// ever grow.
struct CandidateMajorScratch {
  std::vector<double, AlignedAllocator<double, kFrequencyAlignment>> cx, cy;
  std::vector<std::int32_t> hits;
  std::vector<std::uint64_t> touched;
  std::vector<detail::EntrySpan> spans;
};

}  // namespace

void PoiDatabase::freq_sum_max(std::span<const geo::Point> centers,
                               double radius, FrequencyVector& sum,
                               FrequencyVector& max) const {
  if (centers.size() > max_fold_centers()) {
    throw std::invalid_argument(
        "PoiDatabase::freq_sum_max: " + std::to_string(centers.size()) +
        " centers x " + std::to_string(pois_.size()) +
        " POIs could overflow an int32 count");
  }
  const std::size_t m = types_.size();
  sum.assign(m, 0);
  max.assign(m, 0);
  const auto disk_sum_max = detail::active_kernel_ops().disk_sum_max;
  if (disk_sum_max == nullptr) {
    // Centre by centre: each scan lands in one per-thread count row that
    // fold_counts folds into both outputs and zeroes again. A thread that
    // meets a database with more types grows the row (zero-filled).
    thread_local FrequencyVector row;
    if (row.size() < m) row.resize(m);
    const std::span<std::int32_t> counts(row.data(), m);
    for (const geo::Point& center : centers) {
      index_.count_labels_in_disk(center, radius, counts);
      fold_counts(counts, sum, max);
    }
    return;
  }
  // Candidate-major: one walk over the grid rows of the centres' union
  // window, every POI tested against all centres at once. Integer sums and
  // maxima do not depend on visiting order, and the union of the disk
  // windows holds every POI the predicate accepts, so the outputs equal
  // the centre-by-centre path's bit for bit.
  thread_local CandidateMajorScratch scratch;
  scratch.cx.resize(kMaxLanes);
  scratch.cy.resize(kMaxLanes);
  for (std::size_t first = 0; first < centers.size(); first += kMaxLanes) {
    const std::span<const geo::Point> chunk = centers.subspan(
        first, std::min(kMaxLanes, centers.size() - first));
    geo::BBox window{std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()};
    std::size_t n = 0;
    for (const geo::Point& center : chunk) {
      // A centre whose window is empty accepts no POI (negative or NaN
      // radius, NaN or infinite centre); it gets no lane.
      const geo::BBox w = spatial::GridIndex::disk_window(center, radius);
      if (!(w.min_x <= w.max_x)) continue;
      window.min_x = std::min(window.min_x, w.min_x);
      window.min_y = std::min(window.min_y, w.min_y);
      window.max_x = std::max(window.max_x, w.max_x);
      window.max_y = std::max(window.max_y, w.max_y);
      scratch.cx[n] = center.x;
      scratch.cy[n] = center.y;
      ++n;
    }
    if (n == 0) continue;
    const std::size_t lanes = (n + 7) / 8 * 8;
    std::fill(scratch.cx.begin() + static_cast<std::ptrdiff_t>(n),
              scratch.cx.begin() + static_cast<std::ptrdiff_t>(lanes),
              std::numeric_limits<double>::quiet_NaN());
    std::fill(scratch.cy.begin() + static_cast<std::ptrdiff_t>(n),
              scratch.cy.begin() + static_cast<std::ptrdiff_t>(lanes),
              std::numeric_limits<double>::quiet_NaN());
    if (scratch.hits.size() < m * lanes) scratch.hits.resize(m * lanes);
    if (scratch.touched.size() < (m + 63) / 64) {
      scratch.touched.resize((m + 63) / 64);
    }
    scratch.spans.clear();
    index_.for_each_row_span(
        window, [&](const spatial::GridIndex::Entry* begin,
                    const spatial::GridIndex::Entry* end) {
          if (begin != end) scratch.spans.push_back({begin, end});
        });
    disk_sum_max({scratch.spans.data(), scratch.spans.size(),
                  scratch.cx.data(), scratch.cy.data(), lanes,
                  radius * radius, m, scratch.hits.data(),
                  scratch.touched.data(), sum.data(), max.data()});
  }
}

const TileAggregates& PoiDatabase::tile_aggregates() const {
  std::call_once(tile_holder_->once, [this] {
    tile_holder_->tiles =
        std::make_unique<TileAggregates>(pois_, types_.size(), bounds_);
  });
  return *tile_holder_->tiles;
}

std::vector<TypeId> PoiDatabase::types_with_city_freq_at_most(
    std::int32_t threshold) const {
  std::vector<TypeId> out;
  for (TypeId t = 0; t < city_freq_.size(); ++t) {
    if (city_freq_[t] > 0 && city_freq_[t] <= threshold) out.push_back(t);
  }
  return out;
}

}  // namespace poiprivacy::poi
