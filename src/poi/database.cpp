#include "poi/database.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace poiprivacy::poi {

namespace {

// Registry mirrors of the anchor-cache shard atomics; process-wide, shared
// across PoiDatabase instances. Observation only — anchor_cache_stats()
// keeps reading the shard atomics.
struct AnchorMetrics {
  obs::Counter& hits;
  obs::Counter& misses;

  static AnchorMetrics& get() {
    static AnchorMetrics* metrics = new AnchorMetrics{
        obs::global_registry().counter("poi.anchor_cache.hits"),
        obs::global_registry().counter("poi.anchor_cache.misses"),
    };
    return *metrics;
  }
};

}  // namespace

// Sharded read-mostly cache for anchor frequency vectors, keyed by
// (POI id, radius bits). Sharding keeps writer contention negligible while
// the steady state is lock-cheap shared reads. Entries are never evicted:
// the key space is bounded by |POIs| x |query radii in a run|, and the
// attacks probe the same few radii thousands of times each.
struct PoiDatabase::AnchorCache {
  struct Key {
    PoiId id;
    std::uint64_t radius_bits;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // splitmix64 finalizer over the packed key.
      std::uint64_t z = k.radius_bits ^ (static_cast<std::uint64_t>(k.id) *
                                         0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };
  struct Shard {
    std::shared_mutex mu;
    std::unordered_map<Key, AnchorAggregate, KeyHash> entries;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards;

  Shard& shard_for(const Key& key) noexcept {
    return shards[KeyHash{}(key) % kShards];
  }
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

}  // namespace

PoiDatabase::PoiDatabase(std::string city_name, std::vector<Poi> pois,
                         PoiTypeRegistry types, geo::BBox bounds)
    : city_name_(std::move(city_name)),
      pois_(std::move(pois)),
      types_(std::move(types)),
      bounds_(bounds),
      index_(positions_of(pois_), bounds),
      anchor_cache_(std::make_unique<AnchorCache>()),
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
  const AnchorCache::Key key{id, std::bit_cast<std::uint64_t>(radius)};
  AnchorCache::Shard& shard = anchor_cache_->shard_for(key);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      AnchorMetrics::get().hits.add(1);
      return it->second;
    }
  }
  // Compute outside any lock (the fingerprint too, so the insertion
  // critical section stays a move); on a concurrent double-compute the
  // loser discards its copy and counts a hit, so misses stay equal to
  // the number of distinct keys no matter the interleaving.
  AnchorAggregate computed;
  computed.freq = freq(poi(id).pos, radius);
  computed.fp.resize(fingerprint_words(computed.freq.size()));
  pack_fingerprint(computed.freq, computed.fp);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  const auto [it, inserted] =
      shard.entries.try_emplace(key, std::move(computed));
  if (inserted) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    AnchorMetrics::get().misses.add(1);
  } else {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    AnchorMetrics::get().hits.add(1);
  }
  return it->second;
}

AnchorCacheStats PoiDatabase::anchor_cache_stats() const noexcept {
  AnchorCacheStats stats;
  for (const AnchorCache::Shard& shard : anchor_cache_->shards) {
    stats.hits += shard.hits.load(std::memory_order_relaxed);
    stats.misses += shard.misses.load(std::memory_order_relaxed);
  }
  return stats;
}

FrequencyVector PoiDatabase::freq(geo::Point center, double radius) const {
  FrequencyVector f;
  freq_into(center, radius, f);
  return f;
}

void PoiDatabase::freq_into(geo::Point center, double radius,
                            FrequencyVector& out) const {
  out.assign(types_.size(), 0);
  index_.for_each_in_disk(center, radius,
                          [this, &out](std::uint32_t id, geo::Point) {
                            ++out[pois_[id].type];
                          });
}

void PoiDatabase::freq_batch(std::span<const geo::Point> centers, double radius,
                             FreqArena& arena) const {
  arena.reset(centers.size(), types_.size());
  for (std::size_t i = 0; i < centers.size(); ++i) {
    const std::span<std::int32_t> row = arena.row(i);
    index_.for_each_in_disk(centers[i], radius,
                            [this, row](std::uint32_t id, geo::Point) {
                              ++row[pois_[id].type];
                            });
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
