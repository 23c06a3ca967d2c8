#include "service/release_cache.h"

#include <algorithm>
#include <bit>

namespace poiprivacy::service {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return splitmix64(h ^ v);
}

}  // namespace

std::uint64_t ReleaseCache::hash(const ReleaseCacheKey& key) noexcept {
  std::uint64_t h = 0x8f3a9c1d2e4b5a67ULL;
  h = mix(h, std::bit_cast<std::uint64_t>(key.region.min_x));
  h = mix(h, std::bit_cast<std::uint64_t>(key.region.min_y));
  h = mix(h, std::bit_cast<std::uint64_t>(key.region.max_x));
  h = mix(h, std::bit_cast<std::uint64_t>(key.region.max_y));
  h = mix(h, std::bit_cast<std::uint64_t>(key.radius));
  h = mix(h, key.policy);
  // Stream fields only for stream keys: a kind-0 key's hash seeds its
  // canonical dummy draw and must never change.
  if (key.kind != 0) {
    h = mix(h, key.kind);
    h = mix(h, key.stream_begin);
    h = mix(h, key.stream_end);
  }
  return h;
}

ReleaseCache::ReleaseCache(ReleaseCacheConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  const std::size_t n =
      std::min(config_.shards == 0 ? 1 : config_.shards, config_.capacity);
  config_.shards = n;
  shard_capacity_ = (config_.capacity + n - 1) / n;
  shards_ = std::vector<Shard>(n);
}

ReleaseCache::Shard& ReleaseCache::shard_for(const HashedKey& key) const {
  return shards_[key.hash % shards_.size()];
}

std::shared_ptr<const CloakAggregate> ReleaseCache::get(
    const ReleaseCacheKey& key) {
  const HashedKey hk{key, hash(key)};
  Shard& shard = shard_for(hk);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(hk);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  it->second->touch_epoch = epoch_.load(std::memory_order_relaxed);
  ++shard.hits;
  return it->second->value;
}

void ReleaseCache::put(const ReleaseCacheKey& key,
                       std::shared_ptr<const CloakAggregate> value) {
  const HashedKey hk{key, hash(key)};
  Shard& shard = shard_for(hk);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  if (const auto it = shard.index.find(hk); it != shard.index.end()) {
    it->second->value = std::move(value);
    it->second->touch_epoch = now;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  ++shard.misses;
  shard.lru.push_front({hk, std::move(value), now});
  shard.index.emplace(hk, shard.lru.begin());
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions_lru;
  }
}

void ReleaseCache::advance_epoch(std::uint64_t ticks) noexcept {
  epoch_.fetch_add(ticks, std::memory_order_relaxed);
}

std::uint64_t ReleaseCache::epoch() const noexcept {
  return epoch_.load(std::memory_order_relaxed);
}

std::size_t ReleaseCache::evict_expired() {
  if (config_.ttl_epochs == 0) return 0;
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  std::size_t evicted = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    // Recency order implies stamp order, so the expired entries are
    // exactly a suffix of the LRU list: pop from the tail until fresh.
    while (!shard.lru.empty() &&
           shard.lru.back().touch_epoch + config_.ttl_epochs <= now) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.evictions_ttl;
      ++evicted;
    }
  }
  return evicted;
}

ReleaseCacheStats ReleaseCache::stats() const {
  ReleaseCacheStats out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions_lru += shard.evictions_lru;
    out.evictions_ttl += shard.evictions_ttl;
    out.entries += shard.lru.size();
  }
  return out;
}

}  // namespace poiprivacy::service
