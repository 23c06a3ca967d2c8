#include "service/session_table.h"

#include <algorithm>
#include <stdexcept>

namespace poiprivacy::service {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

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
  shards_ = std::vector<Shard>(n);
}

std::size_t SessionTable::shard_of(UserId user) const noexcept {
  return splitmix64(user) % shards_.size();
}

ChargeOutcome SessionTable::try_charge(UserId user, dp::FixedBudget cost) {
  Shard& shard = shards_[shard_of(user)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(user);
  if (it == shard.sessions.end()) {
    if (shard.sessions.size() >= shard_capacity_) {
      ++shard.full_refusals;
      return ChargeOutcome::kTableFull;
    }
    it = shard.sessions.emplace(user, Session{}).first;
    ++shard.created;
  }
  it->second.touch = epoch();
  return it->second.spent.try_charge(cost, ceiling_)
             ? ChargeOutcome::kCharged
             : ChargeOutcome::kWouldExceed;
}

std::optional<dp::FixedBudget> SessionTable::lookup(UserId user) const {
  const Shard& shard = shards_[shard_of(user)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.sessions.find(user);
  if (it == shard.sessions.end()) return std::nullopt;
  return it->second.spent;
}

dp::PrivacyParams SessionTable::spent(UserId user) const {
  return lookup(user).value_or(dp::FixedBudget{}).params();
}

dp::PrivacyParams SessionTable::remaining(UserId user) const {
  return lookup(user).value_or(dp::FixedBudget{}).remaining(ceiling_).params();
}

bool SessionTable::contains(UserId user) const {
  return lookup(user).has_value();
}

void SessionTable::advance_epoch(std::uint64_t ticks) noexcept {
  epoch_.fetch_add(ticks, std::memory_order_relaxed);
}

std::uint64_t SessionTable::epoch() const noexcept {
  return epoch_.load(std::memory_order_relaxed);
}

std::size_t SessionTable::sweep() {
  if (config_.ttl_epochs == 0) return 0;
  const std::uint64_t now = epoch();
  std::size_t evicted = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    // Dropping the session drops its budget: renewal on next contact.
    const std::size_t erased = std::erase_if(
        shard.sessions, [&](const auto& entry) {
          return entry.second.touch + config_.ttl_epochs <= now;
        });
    shard.evictions_ttl += erased;
    evicted += erased;
  }
  return evicted;
}

std::size_t SessionTable::renew_windows() {
  if (config_.renew_window_epochs == 0) return 0;
  const std::uint64_t window = epoch() / config_.renew_window_epochs;
  if (window <= last_renew_window_) return 0;
  last_renew_window_ = window;
  std::size_t renewed = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& entry : shard.sessions) entry.second.spent = {};
    shard.renewals += shard.sessions.size();
    renewed += shard.sessions.size();
  }
  return renewed;
}

SessionTableStats SessionTable::stats() const {
  SessionTableStats out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    out.sessions += shard.sessions.size();
    out.sessions_created += shard.created;
    out.evictions_ttl += shard.evictions_ttl;
    out.full_refusals += shard.full_refusals;
    out.renewals += shard.renewals;
  }
  return out;
}

std::size_t SessionTable::size() const {
  std::size_t resident = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    resident += shard.sessions.size();
  }
  return resident;
}

}  // namespace poiprivacy::service
