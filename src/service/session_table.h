// Sharded per-user session/budget table — million-user admission state.
//
// The serving layer used to keep one defense::ReleaseSession per user in
// a std::map: a per-request log-time lookup, a PrivacyAccountant map copy
// per admission predicate, and no safe concurrent access. This table is
// the scale-out replacement: user ids hash onto N independent shards
// (like the 16-way ReleaseCache), each shard is a fixed-capacity
// open-addressed slot array, and a slot is three words —
//
//   { atomic user id, dp::AtomicBudgetMeter, atomic last-touch epoch }
//
// so the hot path (charge / remaining / spent of an existing
// session) is entirely lock-free: a linear probe over atomic
// user ids plus one CAS on the packed fixed-point budget word
// (dp/budget.h). A shard's mutex is taken only off the hot path — first
// contact of a new user (once per user per lifetime) and the TTL sweep.
//
// Eviction and renewal: the table has a logical epoch, advanced by its
// owner (the service ticks it from batch boundaries; the TCP front-end
// from its accept loop). Every admission touches the session's
// last-touch epoch; sweep() reclaims sessions idle for at least
// `ttl_epochs` — the evicted user's budget RENEWS on next contact
// (ttl_epochs = 0 disables eviction and restores the unbounded per-user
// guarantee). Reclaimed slots become tombstones so concurrent lock-free
// probes stay correct; tombstones are recycled by later inserts under
// the shard mutex. Orthogonally, renew_windows() implements dp::Ledger's
// kWindowedRenewal policy fleet-wide: epochs group into fixed-length
// accounting windows (renew_window_epochs each), and when the epoch
// clock crosses a window boundary every RESIDENT session's meter resets
// to a fresh budget — the w-event-style guarantee where the ceiling
// bounds any single window of releases, not the unbounded stream. The
// owner calls it right after advance_epoch, quiescing first (meter
// resets are not linearizable with concurrent charges, exactly like
// TTL sweeps).
//
// Capacity is a hard bound (fail-closed): when a shard has no free slot
// for a first-contact user the admission is refused as "table full"
// rather than silently untracked — an untracked user would be an
// unaccounted privacy leak. Memory is therefore bounded by
// capacity * sizeof(Slot) regardless of how many distinct user ids a
// million-user day produces; TTL sweeps recycle the slots.
//
// Determinism: driven single-threaded (the batch path's Phase A), every
// operation — including sweep order, which walks shards and slots in
// index order — is a pure function of the call sequence, so released
// vectors stay bit-identical at --threads 1/2/8. Driven concurrently
// (the socket front-end), admission is linearizable per user: the CAS
// ledger guarantees a user's charged budget can never exceed the
// ceiling under any interleaving.
//
// Known benign race, documented rather than locked away: a request that
// races the sweep of its own *already-TTL-expired* session may charge a
// meter in the instant it is being reclaimed; the charge is then
// discarded with the slot. The window exists only for a session that is
// simultaneously expired and active — inherently ambiguous — and only
// when sweep() runs concurrently with traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
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
  /// resident meter when the epoch clock crosses a window boundary
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
  kTableFull,      ///< refused: no slot for a first-contact user
};

/// Aggregated counters. `sessions`/`sessions_created` are exact when read
/// quiescently; under concurrent traffic they are monotone snapshots.
struct SessionTableStats {
  std::uint64_t sessions = 0;          ///< resident (created - evicted)
  std::uint64_t sessions_created = 0;  ///< slots ever claimed
  std::uint64_t evictions_ttl = 0;
  std::uint64_t full_refusals = 0;
  std::uint64_t renewals = 0;  ///< meters reset at window boundaries

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
  /// contact (the only path that takes a lock). Touches the session's
  /// last-active epoch whatever the outcome.
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

  /// Reclaims every session idle for >= ttl_epochs (no-op when TTL is 0),
  /// walking shards and slots in index order. Returns sessions evicted.
  std::size_t sweep();

  /// Windowed budget renewal: when the epoch clock has crossed into a
  /// new accounting window (epoch / renew_window_epochs), resets every
  /// resident session's meter to a fresh budget (no-op when
  /// renew_window_epochs is 0 or the window is unchanged). Owner-driven
  /// and quiesced, like sweep(). Returns sessions renewed.
  std::size_t renew_windows();

  SessionTableStats stats() const;
  std::size_t size() const;  ///< resident sessions

  const SessionTableConfig& config() const noexcept { return config_; }
  dp::FixedBudget ceiling() const noexcept { return ceiling_; }

  // Topology accessors for the reference-oracle property tests.
  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t shard_of(UserId user) const noexcept;
  std::size_t shard_capacity() const noexcept { return shard_capacity_; }

  /// User ids at the very top of the id space are reserved as slot
  /// sentinels and always refused with kTableFull.
  static constexpr UserId kMaxUserId = ~UserId{0} - 2;

 private:
  struct Slot {
    std::atomic<std::uint64_t> uid;
    dp::AtomicBudgetMeter meter;
    std::atomic<std::uint64_t> touch{0};

    Slot() noexcept;
  };
  struct Shard {
    mutable std::mutex mu;  ///< insert + sweep only; never on the hot path
    std::vector<Slot> slots;
    std::atomic<std::size_t> resident{0};
    std::uint64_t created = 0;        ///< under mu
    std::uint64_t evictions_ttl = 0;  ///< under mu
    std::uint64_t renewals = 0;       ///< under mu
    std::atomic<std::uint64_t> full_refusals{0};
  };

  const Slot* find(const Shard& shard, UserId user) const noexcept;
  Slot* find_or_claim_locked(Shard& shard, UserId user);

  SessionTableConfig config_;
  dp::FixedBudget ceiling_;
  std::size_t shard_capacity_;
  std::size_t slot_mask_;  ///< per-shard slot count - 1 (power of two)
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> epoch_{0};
  std::uint64_t last_renew_window_ = 0;  ///< owner-driven, like sweep()
};

}  // namespace poiprivacy::service
