// Sharded LRU cache of cloak-region aggregates — the serving layer's
// memoization of the expensive, non-private part of a DP release.
//
// The DP defense pipeline factors into
//   (1) cloak the requester into a k-anonymous quadrant,
//   (2) average the frequency vectors of k dummy locations in it,
//   (3) add per-dimension noise and post-process (Eq. 8-9).
// Step (2) costs k range queries over the POI database; step (3) costs
// O(|support|), the types the k dummies saw at all. The cached value of
// step (2) is that support alone: one exact-size block of (type, sum,
// max) int32 entries (~30 of the 177 Beijing types at k = 16, r = 1 km),
// not dense per-type vectors, so a resident entry costs a few hundred
// bytes (DESIGN.md 4e, Phase D). The cache keys step
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
// Each get/put hashes its key once: the hash picks the shard and is
// stored beside the key in the index and the LRU entry, so the index's
// bucket walks and the eviction's erase reuse it.
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

/// A cached release computation; which fields it uses depends on the
/// key's kind.
///   * Kind 0 (cloak aggregate, the step-(2) result): `support` lists,
///     in ascending type order, every type the region's k canonical
///     dummies saw, with sum = sum_d F_d[i] and max = Delta_i =
///     max_d F_d[i] (the per-dimension calibration of Eq. 8); every
///     other type has both zero (defense::aggregate_dummies). The block
///     is exactly sized; `sum` and `sensitivity` stay empty.
///   * Kind 1 (stream block): `sum` holds the raw window-major
///     per-series counts, `sensitivity` the single stream sensitivity,
///     `k` the series count, and `support` stays empty.
struct CloakAggregate {
  std::vector<double> sum;               ///< kind 1 only
  std::vector<double> sensitivity;       ///< kind 1 only
  std::vector<poi::TypeSumMax> support;  ///< kind 0 only
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
  /// A key with its hash(), computed once per get/put.
  struct HashedKey {
    ReleaseCacheKey key;
    std::uint64_t hash = 0;

    friend bool operator==(const HashedKey& a, const HashedKey& b) noexcept {
      return a.hash == b.hash && a.key == b.key;
    }
  };
  struct StoredHash {
    std::size_t operator()(const HashedKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash);
    }
  };
  struct Entry {
    HashedKey key;
    std::shared_ptr<const CloakAggregate> value;
    std::uint64_t touch_epoch = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<HashedKey, std::list<Entry>::iterator, StoredHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions_lru = 0;
    std::uint64_t evictions_ttl = 0;
  };

  Shard& shard_for(const HashedKey& key) const;

  ReleaseCacheConfig config_;
  std::size_t shard_capacity_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace poiprivacy::service
