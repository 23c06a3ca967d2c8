// Sharded per-user session/budget table — million-user admission state.
//
// The serving layer used to keep one defense::ReleaseSession per user in
// a std::map: a per-request log-time lookup, a PrivacyAccountant map copy
// per admission predicate, and no safe concurrent access. This table is
// the scale-out replacement: user ids hash onto N independent shards
// (like the 16-way ReleaseCache), and each shard is one mutex over one
// map of
//
//   user id -> { dp::FixedBudget spent, last-touch epoch }
//
// Every operation — charge, lookup, sweep, renewal, stats — takes the
// shard's mutex, so each is linearizable with every other, and a
// charge is a map lookup plus two saturating adds (dp/budget.h).
//
// Eviction and renewal: the table has a logical epoch, advanced by its
// owner (the service ticks it from batch boundaries; the TCP front-end
// from its main loop while connection threads charge). Every admission
// touches the session's last-touch epoch; sweep() erases sessions idle
// for at least `ttl_epochs` — the evicted user's budget RENEWS on next
// contact (ttl_epochs = 0 disables eviction and restores the unbounded
// per-user guarantee). Orthogonally, renew_windows() implements
// dp::Ledger's kWindowedRenewal policy fleet-wide: epochs group into
// fixed-length accounting windows (renew_window_epochs each), and when
// the epoch clock crosses a window boundary every RESIDENT session's
// budget resets to zero spent — the w-event-style guarantee where the
// ceiling bounds any single window of releases, not the unbounded
// stream. The owner calls it right after advance_epoch; a charge racing
// it lands wholly before or wholly after its user's reset.
//
// Capacity is a hard bound (fail-closed): when a shard already holds
// shard_capacity() sessions, a first-contact user is refused as "table
// full" rather than silently untracked — an untracked user would be an
// unaccounted privacy leak. Memory therefore grows with the resident
// sessions and stays bounded by `capacity` map nodes regardless of how
// many distinct user ids a million-user day produces; TTL sweeps free
// them. Every u64 is an ordinary user id.
//
// Determinism: driven single-threaded (the batch path's Phase A), every
// outcome, budget and counter is a pure function of the call sequence,
// so released vectors stay bit-identical at --threads 1/2/8. Driven
// concurrently (the socket front-end), a user's charged budget can never
// exceed the ceiling under any interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dp/budget.h"

namespace poiprivacy::service {

using UserId = std::uint64_t;

struct SessionTableConfig {
  /// Maximum resident sessions, spread over `shards`.
  std::size_t capacity = 1 << 16;
  std::size_t shards = 64;
  /// Sessions idle for this many epochs are reclaimed by sweep();
  /// 0 disables eviction (sessions live for the table's lifetime).
  std::uint64_t ttl_epochs = 0;
  /// Epochs per budget-accounting window: renew_windows() resets every
  /// resident budget when the epoch clock crosses a window boundary
  /// (dp::Ledger kWindowedRenewal, fleet-wide); 0 disables renewal and
  /// the ceilings bound the session's lifetime.
  std::uint64_t renew_window_epochs = 0;
  /// Per-user budget ceilings (quantized via dp::FixedBudget).
  double epsilon_ceiling = 8.0;
  double delta_ceiling = 0.5;
};

enum class ChargeOutcome : std::uint8_t {
  kCharged = 0,    ///< admitted; the cost is committed to the ledger
  kWouldExceed,    ///< refused: the user's remaining budget is too small
  kTableFull,      ///< refused: a first-contact user's shard is full
};

/// Aggregated counters, summed shard by shard (each shard's part is
/// consistent; under concurrent traffic the sum is a snapshot).
struct SessionTableStats {
  std::uint64_t sessions = 0;          ///< resident (created - evicted)
  std::uint64_t sessions_created = 0;  ///< first contacts admitted
  std::uint64_t evictions_ttl = 0;
  std::uint64_t full_refusals = 0;
  std::uint64_t renewals = 0;  ///< budgets reset at window boundaries

  friend bool operator==(const SessionTableStats&,
                         const SessionTableStats&) = default;
};

class SessionTable {
 public:
  /// Throws std::invalid_argument on zero capacity.
  explicit SessionTable(SessionTableConfig config);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// The admission primitive: atomically charges `cost` against `user`'s
  /// ledger unless it would pass a ceiling. Creates the session on first
  /// contact. Touches the session's last-active epoch whatever the
  /// outcome.
  ChargeOutcome try_charge(UserId user, dp::FixedBudget cost);

  /// Composed (basic) budget charged so far; {0, 0} when untracked.
  dp::PrivacyParams spent(UserId user) const;
  /// Componentwise budget left before the ceiling; the full ceiling when
  /// untracked.
  dp::PrivacyParams remaining(UserId user) const;
  bool contains(UserId user) const;

  /// Epoch clock, owner-driven. advance_epoch does NOT sweep — pairing
  /// the tick with the reclaim pass is the owner's call ordering.
  void advance_epoch(std::uint64_t ticks = 1) noexcept;
  std::uint64_t epoch() const noexcept;

  /// Erases every session idle for >= ttl_epochs (no-op when TTL is 0),
  /// one shard at a time. Returns sessions evicted.
  std::size_t sweep();

  /// Windowed budget renewal: when the epoch clock has crossed into a
  /// new accounting window (epoch / renew_window_epochs), resets every
  /// resident session's spent budget to zero (no-op when
  /// renew_window_epochs is 0 or the window is unchanged). Safe alongside
  /// charges; one owner thread calls it, like advance_epoch. Returns
  /// sessions renewed.
  std::size_t renew_windows();

  SessionTableStats stats() const;
  std::size_t size() const;  ///< resident sessions

  const SessionTableConfig& config() const noexcept { return config_; }
  dp::FixedBudget ceiling() const noexcept { return ceiling_; }

  // Topology accessors for the reference-oracle property tests.
  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_of(UserId user) const noexcept;
  std::size_t shard_capacity() const noexcept { return shard_capacity_; }

 private:
  struct Session {
    dp::FixedBudget spent;
    std::uint64_t touch = 0;  ///< epoch of the last admission attempt
  };
  struct Shard {
    mutable std::mutex mu;  ///< guards every field below
    std::unordered_map<UserId, Session> sessions;
    std::uint64_t created = 0;
    std::uint64_t evictions_ttl = 0;
    std::uint64_t full_refusals = 0;
    std::uint64_t renewals = 0;
  };

  /// `user`'s spent budget, or nullopt when untracked.
  std::optional<dp::FixedBudget> lookup(UserId user) const;

  SessionTableConfig config_;
  dp::FixedBudget ceiling_;
  std::size_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> epoch_{0};
  std::uint64_t last_renew_window_ = 0;  ///< renew_windows' owner only
};

}  // namespace poiprivacy::service
