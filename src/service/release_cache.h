// Sharded LRU cache of cloak-region aggregates — the serving layer's
// memoization of the expensive, non-private part of a DP release.
//
// The DP defense pipeline factors into
//   (1) cloak the requester into a k-anonymous quadrant,
//   (2) average the frequency vectors of k dummy locations in it,
//   (3) add per-dimension noise and post-process (Eq. 8-9).
// Step (2) costs k range queries over the POI database; step (3) costs
// O(|support|), the types the k dummies saw at all. The cache keys step
// (2) on (cloaked region, radius, policy): the canonical dummy set is
// drawn from the region itself with an RNG derived from the key (see
// ReleaseService), so the aggregate is a pure function of the key and
// any two users cloaked into the same quadrant share it.
//
// Unlike the PoiDatabase anchor cache (unbounded, read-mostly), release
// traffic has an unbounded key space — every (region, radius, policy)
// combination a city's worth of users produces over a day — so entries
// are LRU-evicted per shard. Values are handed out as shared_ptr so an
// in-flight request survives the eviction of its entry.
//
// Two eviction policies run side by side, each with its own counter:
//   * capacity (LRU): a full shard drops its least-recently-used entry
//     on insert — `evictions_lru`;
//   * TTL: the cache has a logical epoch (advance_epoch, owner-driven);
//     every hit/insert stamps the entry, and evict_expired() drops
//     entries untouched for `ttl_epochs` — `evictions_ttl`. A TTL of 0
//     (the default) disables expiry. Because recency order implies
//     stamp order, expired entries are always a suffix of a shard's LRU
//     list, so a sweep pops from the tail and costs O(evicted).
// Either way an evicted aggregate is only ever *recomputed* — it is a
// pure function of its key, so eviction never changes a released vector.
//
// Thread safety: every operation locks its shard, so concurrent use is
// safe. Determinism of the hit/miss/eviction counters, however, is the
// caller's job: ReleaseService probes and inserts serially in request
// order (only the aggregate *computation* is parallel), which makes the
// counters and the eviction sequence bit-identical for any --threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geo/geometry.h"
#include "poi/poi.h"

namespace poiprivacy::service {

/// Index into ServiceConfig::policies.
using PolicyId = std::uint32_t;

/// Identity of a cacheable release computation. The region is the exact
/// cloak quadrant (halved doubles, so bitwise comparison is stable).
///
/// Two kinds share the cache: kind 0 is the classic cloak-region
/// aggregate (region/radius/policy); kind 1 is a continual-release
/// stream block (the raw per-tile window counts for [stream_begin,
/// stream_end), region/radius zeroed). The stream fields fold into
/// hash() only when kind != 0, so aggregate keys keep their historical
/// hash — it seeds the canonical dummy draws, and changing it would
/// change every released vector.
struct ReleaseCacheKey {
  geo::BBox region;
  double radius = 0.0;
  PolicyId policy = 0;
  std::uint32_t kind = 0;          ///< 0 = cloak aggregate, 1 = stream block
  std::uint32_t stream_begin = 0;  ///< window-range epochs (kind 1)
  std::uint32_t stream_end = 0;

  friend bool operator==(const ReleaseCacheKey&,
                         const ReleaseCacheKey&) = default;
};

/// The cached step-(2) result: per-type sums and sensitivities over the
/// region's k canonical dummy locations (sensitivity_i = max_d F_d[i],
/// the Gaussian mechanism's per-dimension calibration), plus their
/// support (defense::aggregate_dummies: the ascending types with
/// sum != 0, which for counts is also where sensitivity > 0), built once
/// per miss so every hit noises and post-processes only those types.
/// Stream blocks (key kind 1) reuse the container: `sum` holds the raw
/// window-major per-series counts, `sensitivity` the single stream
/// sensitivity, `k` the series count, and `support` stays empty.
struct CloakAggregate {
  std::vector<double> sum;
  std::vector<double> sensitivity;
  std::vector<poi::TypeId> support;
  std::size_t k = 0;
};

/// Monotone counters; under ReleaseService's serial probe order they are
/// bit-identical for any thread count.
struct ReleaseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< insertions (== distinct keys computed)
  std::uint64_t evictions_lru = 0;  ///< capacity evictions at insert
  std::uint64_t evictions_ttl = 0;  ///< expiry evictions by evict_expired()
  std::uint64_t entries = 0;  ///< current resident entries

  std::uint64_t evictions() const noexcept {
    return evictions_lru + evictions_ttl;
  }
  std::uint64_t lookups() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
  friend bool operator==(const ReleaseCacheStats&,
                         const ReleaseCacheStats&) = default;
};

struct ReleaseCacheConfig {
  std::size_t capacity = 4096;  ///< total entries across all shards
  std::size_t shards = 16;
  std::uint64_t ttl_epochs = 0;  ///< 0 disables TTL expiry
};

class ReleaseCache {
 public:
  /// `capacity` entries total, spread over `shards` independent LRU lists
  /// (each holding ceil(capacity / shards)).
  explicit ReleaseCache(std::size_t capacity, std::size_t shards = 16)
      : ReleaseCache(ReleaseCacheConfig{capacity, shards, 0}) {}
  explicit ReleaseCache(ReleaseCacheConfig config);

  /// The aggregate for `key`, refreshing its LRU position and TTL stamp,
  /// or nullptr.
  std::shared_ptr<const CloakAggregate> get(const ReleaseCacheKey& key);

  /// Inserts (or refreshes) `key`, evicting the shard's LRU entry when
  /// the shard is full.
  void put(const ReleaseCacheKey& key,
           std::shared_ptr<const CloakAggregate> value);

  /// Owner-driven epoch clock for TTL expiry (no-op bookkeeping when
  /// ttl_epochs is 0). advance_epoch never evicts by itself.
  void advance_epoch(std::uint64_t ticks = 1) noexcept;
  std::uint64_t epoch() const noexcept;
  /// Drops every entry untouched for >= ttl_epochs, walking shards in
  /// index order; returns the number evicted.
  std::size_t evict_expired();

  ReleaseCacheStats stats() const;
  std::size_t capacity() const noexcept { return config_.capacity; }
  std::uint64_t ttl_epochs() const noexcept { return config_.ttl_epochs; }

  /// Stable 64-bit key hash — also the seed material for the key's
  /// canonical dummy draw in ReleaseService.
  static std::uint64_t hash(const ReleaseCacheKey& key) noexcept;

 private:
  struct Entry {
    ReleaseCacheKey key;
    std::shared_ptr<const CloakAggregate> value;
    std::uint64_t touch_epoch = 0;
  };
  struct KeyHash {
    std::size_t operator()(const ReleaseCacheKey& key) const noexcept {
      return static_cast<std::size_t>(hash(key));
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<ReleaseCacheKey, std::list<Entry>::iterator, KeyHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions_lru = 0;
    std::uint64_t evictions_ttl = 0;
  };

  Shard& shard_for(const ReleaseCacheKey& key) const;

  ReleaseCacheConfig config_;
  std::size_t shard_capacity_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace poiprivacy::service
