// ReleaseService — the GSP's multi-user aggregate-release serving layer.
//
// The paper's threat model has a geo-information service provider
// publishing protected POI frequency vectors to a large user population;
// the library pieces (DpDefense, dp::Ledger) are per-call, per-user. This subsystem is the long-lived in-process service that
// sits on top of them:
//
//   * a sharded, fixed-capacity session/budget table (session_table.h):
//     one mutex and one map per shard, each session a fixed-point
//     dp::FixedBudget, so an admission charge is two integer adds;
//   * admission control: a request whose composed (eps, delta) would
//     exceed the ceiling is degraded to a cheaper policy (if configured)
//     or refused with a typed ReleaseStatus — never an exception;
//   * a sharded LRU+TTL cache of cloak-region aggregates so users
//     cloaked into the same quadrant share the k range queries
//     (release_cache.h);
//   * one serving pipeline for point requests, serve_batch(): enqueue()
//     fills a bounded queue that drains into it max_batch at a time, and
//     serve_concurrent() is a batch of one for the socket front-end
//     (src/net). serve_batch() is safe to call from several threads at
//     once: the session table, the cache and the counters are.
//
// Determinism contract: a single caller of serve()/enqueue() (the
// queue's one owner) gets bit-identical replay — statuses, released
// vectors and every counter are the same for any --threads. Four
// mechanisms make it hold:
//   1. admission runs serially in request order (the session table is a
//      pure function of the charge sequence);
//   2. cache probes/inserts run serially in request order, so LRU motion
//      and hit/miss/eviction counters never depend on scheduling — only
//      the aggregate computation and the per-request noise fan out;
//   3. noise for request number i (a process-lifetime counter) draws from
//      Rng(seed).substream(i), a pure function of (seed, i);
//   4. a cached aggregate is a pure function of its key — its dummy draw
//      seeds from the key hash — so cache capacity (hence eviction) can
//      change which work is *recomputed* but never a released vector.
// Arrival order assigns the noise indices, so one connection issuing
// requests sequentially reproduces serve() bit for bit. Concurrent
// serve_concurrent() callers stay linearizable per user (a user's
// charges apply in one order and never overspend) and get no coalescing
// across calls (cold probes of one key in two calls both compute it).
// All callers share the session table, the cache and one set of
// counters (stats() reports all of them); interleaved callers take noise
// indices and move the cache under each other, so they forfeit the
// owner's replay, nothing else.
//
// Eviction and renewal: advance_epoch() ticks the session table's and
// the cache's logical clocks, runs their sweeps, and renews windowed
// budgets. Cache expiry never changes a released vector (see 4);
// session expiry RENEWS the user's budget on next contact, and — when
// session_renew_epochs is set — every resident budget renews when the
// epoch clock crosses an accounting-window boundary (dp::Ledger's
// kWindowedRenewal policy, fleet-wide). The owner opts in and drives
// the clock explicitly, so eviction/renewal timing is part of the call
// sequence, never of thread scheduling.
//
// Continual releases: serve_stream() serves per-tile sliding-window
// aggregate streams (an attached StreamSource, e.g. the mia releaser)
// through the same machinery — one fixed-point admission charge of
// W x the policy cost for a W-window block, the raw block cached under
// a kind-1 ReleaseCacheKey, per-request Laplace noise from the
// request's own substream.
//
// Privacy note: the served aggregate is computed from the cloaked
// region's canonical dummies, not from the requester's exact location, so
// the pre-noise value is already k-anonymous (that is exactly what makes
// it shareable across users); the per-request Gaussian/geometric noise
// then provides the (eps, delta) guarantee that the ledger composes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloak/kcloak.h"
#include "defense/opt_defense.h"
#include "obs/metrics.h"
#include "service/release_cache.h"
#include "service/session_table.h"
#include "service/stream_source.h"

namespace poiprivacy::service {

/// A named release policy: the DP mechanism parameters one request class
/// is served under (k, epsilon, delta, noise kind, beta).
struct ReleasePolicy {
  std::string name;
  defense::DpDefenseConfig release;
};

struct ReleaseRequest {
  UserId user_id = 0;
  geo::Point location;
  double radius = 1.0;          ///< query range r in km
  PolicyId policy = 0;          ///< index into ServiceConfig::policies

  friend bool operator==(const ReleaseRequest&,
                         const ReleaseRequest&) = default;
};

/// A continual-release request: one series of the attached StreamSource
/// over the window range [begin_epoch, end_epoch), noised under a
/// policy. Admission charges num_windows x the policy cost in one
/// try_charge.
struct StreamRequest {
  UserId user_id = 0;
  std::uint32_t series = 0;       ///< index into the source's series
  std::uint32_t begin_epoch = 0;  ///< released range [begin, end)
  std::uint32_t end_epoch = 0;
  PolicyId policy = 0;            ///< index into ServiceConfig::policies

  friend bool operator==(const StreamRequest&,
                         const StreamRequest&) = default;
};

enum class ReleaseStatus : std::uint8_t {
  kGranted = 0,          ///< served under the requested policy
  kDegraded,             ///< budget-limited; served under degrade_policy
  kBudgetExhausted,      ///< refused: no admissible policy fits the budget
  kInvalidRequest,       ///< unknown policy, non-finite location, or a
                         ///< radius that is not finite and positive
};

inline constexpr ReleaseStatus kAllStatuses[] = {
    ReleaseStatus::kGranted,
    ReleaseStatus::kDegraded,
    ReleaseStatus::kBudgetExhausted,
    ReleaseStatus::kInvalidRequest,
};

const char* status_name(ReleaseStatus status) noexcept;

struct ReleaseResult {
  ReleaseStatus status = ReleaseStatus::kInvalidRequest;
  PolicyId served_policy = 0;    ///< meaningful when a vector was released
  bool cache_hit = false;        ///< aggregate came from the release cache
  poi::FrequencyVector vector;   ///< empty unless granted/degraded
  dp::PrivacyParams spent;       ///< user's composed budget after this call

  friend bool operator==(const ReleaseResult& a, const ReleaseResult& b) {
    return a.status == b.status && a.served_policy == b.served_policy &&
           a.cache_hit == b.cache_hit && a.vector == b.vector &&
           a.spent.epsilon == b.spent.epsilon && a.spent.delta == b.spent.delta;
  }
};

struct ServiceConfig {
  /// At least one policy; requests address them by index.
  std::vector<ReleasePolicy> policies;
  /// When set, a request that would blow the budget under its own policy
  /// is served under this (cheaper) policy instead of being refused.
  std::optional<PolicyId> degrade_policy;
  /// Per-user budget ceilings (fixed-point basic composition; see
  /// dp/budget.h for the quantization contract).
  double epsilon_ceiling = 8.0;
  double delta_ceiling = 0.5;
  /// Session/budget table sizing (hard memory bound; fail-closed).
  std::size_t session_capacity = 1 << 16;
  std::size_t session_shards = 64;
  /// Sessions idle this many epochs are reclaimed (budget renewal) by
  /// advance_epoch(); 0 = sessions never expire.
  std::uint64_t session_ttl_epochs = 0;
  /// Total release-cache entries (sharded LRU) and expiry policy.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  std::uint64_t cache_ttl_epochs = 0;  ///< 0 = entries never expire
  /// Epochs per budget-accounting window: advance_epoch() renews every
  /// resident session budget when the clock crosses a window boundary
  /// (0 = budgets never renew; ceilings bound the session lifetime).
  std::uint64_t session_renew_epochs = 0;
  /// Bounded queue: enqueue() drains a batch once this many are pending.
  std::size_t max_batch = 256;
  /// Master seed for noise substreams and canonical dummy draws.
  std::uint64_t seed = 1234;
};

/// A snapshot of one service's counters over every serving path (batch,
/// serve_concurrent, serve_stream). Exact when read quiescently; traffic
/// driven only through the batch path leaves every field bit-identical
/// for any thread count. Cache hits/misses are the *effective* ones — a
/// request whose key another request in the same batch is already
/// computing counts as a hit; misses therefore equal aggregates actually
/// computed.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t granted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t invalid = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;  ///< serve_batch calls: drained batches plus
                              ///< serve_concurrent calls
  std::uint64_t users = 0;    ///< sessions created so far

  std::uint64_t count(ReleaseStatus status) const noexcept;
  double cache_hit_rate() const noexcept {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(lookups);
  }
  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

class ReleaseService {
 public:
  /// Throws std::invalid_argument on an empty/ill-formed policy list, a
  /// policy whose k x |POIs| exceeds INT32_MAX (the exact-fold bound of
  /// PoiDatabase::freq_sum_max), a dangling degrade_policy index, or a
  /// zero session capacity.
  ReleaseService(const poi::PoiDatabase& db,
                 const cloak::AdaptiveIntervalCloaker& cloaker,
                 ServiceConfig config);

  /// Queues one request; when max_batch are pending the queue drains onto
  /// the thread pool and the batch's results are collected for flush().
  void enqueue(const ReleaseRequest& request);

  /// Drains the remaining queue and returns every result collected since
  /// the last flush, in enqueue order.
  std::vector<ReleaseResult> flush();

  /// enqueue() + flush() over a whole trace. Requires no pending
  /// requests from a previous partial enqueue.
  std::vector<ReleaseResult> serve(std::span<const ReleaseRequest> requests);

  /// One request as a batch of one through serve_batch(), for the socket
  /// front-end. Safe to call from many threads at once, and alongside
  /// the owner's serve()/enqueue(); counts into stats().
  ReleaseResult serve_concurrent(const ReleaseRequest& request);

  /// Serves one continual-release stream request (thread-safe, counts
  /// into stats()). Requires an attached StreamSource;
  /// without one every stream request is kInvalidRequest. The released
  /// vector holds num_windows noised counts for the requested series.
  ReleaseResult serve_stream(const StreamRequest& request);

  /// Attaches the continual-release source served by serve_stream().
  /// Not thread-safe against in-flight stream requests — attach before
  /// serving. The source must outlive the service.
  void attach_stream_source(const StreamSource* source) noexcept {
    stream_source_ = source;
  }
  const StreamSource* stream_source() const noexcept {
    return stream_source_;
  }

  std::size_t pending() const noexcept { return queue_.size(); }

  /// Ticks the session-table and release-cache epoch clocks and runs
  /// both sweeps. Deterministic given the call sequence; the owner
  /// drives it (batch boundaries, a wall-clock ticker, ...) from one
  /// thread, and may do so while other threads serve: both sweeps lock
  /// the shards they touch.
  void advance_epoch(std::uint64_t ticks = 1);

  ServiceStats stats() const;
  /// Raw cache counters (insertions/evictions/residency). The service
  /// stats' hits/misses are the effective per-request ones.
  ReleaseCacheStats cache_stats() const { return cache_.stats(); }
  SessionTableStats session_stats() const { return sessions_.stats(); }

  /// Budget state of one user; zero-spend if the user was never admitted
  /// (or the session TTL-expired — budget renewal).
  dp::PrivacyParams user_spent(UserId user) const;
  dp::PrivacyParams user_remaining(UserId user) const;
  std::size_t num_users() const noexcept { return sessions_.size(); }

  const ServiceConfig& config() const noexcept { return config_; }

  /// The aggregate the cache holds for a kind-0 `key`: the support's
  /// (type, sum, max) entries over the key region's k canonical dummies.
  /// A pure function of the key (the dummy draw seeds from its hash), so
  /// recomputing it anywhere reproduces the cached value bit for bit.
  CloakAggregate compute_aggregate(const ReleaseCacheKey& key) const;

 private:
  struct Admitted;
  /// The one source of stats(): every serving path counts here.
  struct Counters {
    obs::Counter requests;
    obs::Counter granted;
    obs::Counter degraded;
    obs::Counter budget_exhausted;
    obs::Counter invalid;
    obs::Counter cache_hits;
    obs::Counter cache_misses;
    obs::Counter batches;

    obs::Counter& of(ReleaseStatus status) noexcept;
  };

  /// The admission decision of Phase A: try the requested policy, fall
  /// back to the degrade policy, else refuse.
  /// Returns the status and fills `served` on grant/degrade.
  ReleaseStatus admit(UserId user, PolicyId requested, PolicyId& served);

  /// The point-request pipeline: appends one result per request to
  /// `results`. Thread-safe (see the header comment).
  void serve_batch(std::span<const ReleaseRequest> requests,
                   std::vector<ReleaseResult>& results);
  void drain_queue();
  /// Phase F: defense::noised_release, the Eq. (8) noise and the Eq. (9)
  /// post-processing over the aggregate's support only.
  poi::FrequencyVector noised_release(const defense::DpDefenseConfig& policy,
                                      const CloakAggregate& aggregate,
                                      common::Rng& rng) const;

  const poi::PoiDatabase* db_;
  const cloak::AdaptiveIntervalCloaker* cloaker_;
  const StreamSource* stream_source_ = nullptr;
  ServiceConfig config_;
  std::vector<dp::FixedBudget> policy_costs_;  ///< quantized, by PolicyId
  ReleaseCache cache_;
  SessionTable sessions_;
  std::deque<ReleaseRequest> queue_;
  std::vector<ReleaseResult> collected_;
  Counters counters_;
  std::atomic<std::uint64_t> next_request_index_{0};  ///< noise substreams
  common::Rng noise_base_;
  common::Rng aggregate_base_;
};

}  // namespace poiprivacy::service
