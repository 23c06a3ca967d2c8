#include "service/session_table.h"

#include <bit>
#include <stdexcept>

namespace poiprivacy::service {

namespace {

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr std::uint64_t kTombstoneSlot = ~std::uint64_t{0} - 1;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

SessionTable::Slot::Slot() noexcept : uid(kEmptySlot) {}

SessionTable::SessionTable(SessionTableConfig config)
    : config_(config),
      ceiling_(dp::FixedBudget::ceiling_of(config.epsilon_ceiling,
                                           config.delta_ceiling)) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("session table: capacity must be positive");
  }
  if (config_.shards == 0) config_.shards = 1;
  const std::size_t n = std::min(config_.shards, config_.capacity);
  shard_capacity_ = (config_.capacity + n - 1) / n;
  // Slot arrays hold 2x the shard capacity (rounded up to a power of
  // two), so linear probing stays short even at the fail-closed limit.
  const std::size_t slots = std::bit_ceil(shard_capacity_ * 2);
  slot_mask_ = slots - 1;
  shards_ = std::vector<Shard>(n);
  for (Shard& shard : shards_) {
    shard.slots = std::vector<Slot>(slots);
  }
}

std::size_t SessionTable::shard_of(UserId user) const noexcept {
  return splitmix64(user) % shards_.size();
}

/// Lock-free probe: stop at the first empty slot (tombstones keep the
/// probe going — a live session may sit beyond a reclaimed slot).
const SessionTable::Slot* SessionTable::find(const Shard& shard,
                                             UserId user) const noexcept {
  const std::size_t start = splitmix64(splitmix64(user)) & slot_mask_;
  for (std::size_t i = 0; i <= slot_mask_; ++i) {
    const Slot& slot = shard.slots[(start + i) & slot_mask_];
    const std::uint64_t uid = slot.uid.load(std::memory_order_acquire);
    if (uid == user) return &slot;
    if (uid == kEmptySlot) return nullptr;
  }
  return nullptr;
}

/// Under the shard mutex: re-probe (a racing inserter may have won), then
/// claim the first reclaimable slot on the probe path. The meter and the
/// touch epoch are initialized BEFORE the uid is published with release
/// order, so a lock-free reader that matches the uid sees a fresh slot.
SessionTable::Slot* SessionTable::find_or_claim_locked(Shard& shard,
                                                       UserId user) {
  const std::size_t start = splitmix64(splitmix64(user)) & slot_mask_;
  Slot* claimable = nullptr;
  for (std::size_t i = 0; i <= slot_mask_; ++i) {
    Slot& slot = shard.slots[(start + i) & slot_mask_];
    const std::uint64_t uid = slot.uid.load(std::memory_order_acquire);
    if (uid == user) return &slot;
    if (uid == kTombstoneSlot) {
      if (claimable == nullptr) claimable = &slot;
      continue;
    }
    if (uid == kEmptySlot) {
      if (claimable == nullptr) claimable = &slot;
      break;
    }
  }
  if (claimable == nullptr ||
      shard.resident.load(std::memory_order_relaxed) >= shard_capacity_) {
    return nullptr;
  }
  claimable->meter.reset();
  claimable->touch.store(epoch_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  claimable->uid.store(user, std::memory_order_release);
  shard.resident.fetch_add(1, std::memory_order_relaxed);
  ++shard.created;
  return claimable;
}

ChargeOutcome SessionTable::try_charge(UserId user, dp::FixedBudget cost) {
  if (user > kMaxUserId) return ChargeOutcome::kTableFull;
  Shard& shard = shards_[shard_of(user)];
  const Slot* found = find(shard, user);
  Slot* slot = const_cast<Slot*>(found);
  if (slot == nullptr) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    slot = find_or_claim_locked(shard, user);
    if (slot == nullptr) {
      shard.full_refusals.fetch_add(1, std::memory_order_relaxed);
      return ChargeOutcome::kTableFull;
    }
  }
  slot->touch.store(epoch_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return slot->meter.try_charge(cost, ceiling_) ? ChargeOutcome::kCharged
                                                : ChargeOutcome::kWouldExceed;
}

dp::PrivacyParams SessionTable::spent(UserId user) const {
  if (user > kMaxUserId) return {0.0, 0.0};
  const Shard& shard = shards_[shard_of(user)];
  if (const Slot* slot = find(shard, user)) {
    return slot->meter.spent().params();
  }
  return {0.0, 0.0};
}

dp::PrivacyParams SessionTable::remaining(UserId user) const {
  if (user <= kMaxUserId) {
    const Shard& shard = shards_[shard_of(user)];
    if (const Slot* slot = find(shard, user)) {
      return slot->meter.remaining(ceiling_).params();
    }
  }
  return ceiling_.params();
}

bool SessionTable::contains(UserId user) const {
  if (user > kMaxUserId) return false;
  return find(shards_[shard_of(user)], user) != nullptr;
}

void SessionTable::advance_epoch(std::uint64_t ticks) noexcept {
  epoch_.fetch_add(ticks, std::memory_order_relaxed);
}

std::uint64_t SessionTable::epoch() const noexcept {
  return epoch_.load(std::memory_order_relaxed);
}

std::size_t SessionTable::sweep() {
  if (config_.ttl_epochs == 0) return 0;
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed);
  std::size_t evicted = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (Slot& slot : shard.slots) {
      const std::uint64_t uid = slot.uid.load(std::memory_order_acquire);
      if (uid >= kTombstoneSlot) continue;
      const std::uint64_t touch = slot.touch.load(std::memory_order_relaxed);
      if (touch + config_.ttl_epochs > now) continue;
      // Tombstone first so lock-free probes stop matching, then drop the
      // budget with the slot (renewal-on-next-contact semantics).
      slot.uid.store(kTombstoneSlot, std::memory_order_release);
      slot.meter.reset();
      shard.resident.fetch_sub(1, std::memory_order_relaxed);
      ++shard.evictions_ttl;
      ++evicted;
    }
  }
  return evicted;
}

std::size_t SessionTable::renew_windows() {
  if (config_.renew_window_epochs == 0) return 0;
  const std::uint64_t window =
      epoch_.load(std::memory_order_relaxed) / config_.renew_window_epochs;
  if (window <= last_renew_window_) return 0;
  last_renew_window_ = window;
  std::size_t renewed = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (Slot& slot : shard.slots) {
      if (slot.uid.load(std::memory_order_acquire) >= kTombstoneSlot) continue;
      slot.meter.reset();
      ++shard.renewals;
      ++renewed;
    }
  }
  return renewed;
}

SessionTableStats SessionTable::stats() const {
  SessionTableStats out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    out.sessions += shard.resident.load(std::memory_order_relaxed);
    out.sessions_created += shard.created;
    out.evictions_ttl += shard.evictions_ttl;
    out.full_refusals += shard.full_refusals.load(std::memory_order_relaxed);
    out.renewals += shard.renewals;
  }
  return out;
}

std::size_t SessionTable::size() const {
  std::size_t resident = 0;
  for (const Shard& shard : shards_) {
    resident += shard.resident.load(std::memory_order_relaxed);
  }
  return resident;
}

}  // namespace poiprivacy::service
